"""Semantic lexicon: groups of surface forms that denote the same concept.

A pre-trained language model "knows" that *CA* can denote *Canada*, that
*St* abbreviates *Street* and that *automobile* is a synonym of *car*.  The
simulated embedders in this package obtain that knowledge from an explicit,
inspectable lexicon instead of model weights: every concept group lists the
surface forms the models may anchor to a common point in embedding space.

The same concept groups drive the synthetic benchmark's corruption generators
(:mod:`repro.datasets.corruptions`), which is precisely the situation the real
system is in — the knowledge needed to resolve an abbreviation is general
world knowledge, available to an LLM and encoded here explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.utils.text import normalize_value, tokenize

ConceptGroups = Mapping[str, Sequence[str]]


class SemanticLexicon:
    """Maps surface forms to concepts and canonicalises values.

    Parameters
    ----------
    groups:
        ``concept -> surface forms`` mapping.  Forms are normalised
        (lower-case, accent-stripped); the concept id itself is implicitly one
        of its forms.
    """

    def __init__(self, groups: ConceptGroups | None = None) -> None:
        self._forms_by_concept: Dict[str, Set[str]] = {}
        self._concept_by_form: Dict[str, str] = {}
        self._token_concepts: Dict[str, str] = {}
        if groups:
            for concept, forms in groups.items():
                self.add_group(concept, forms)

    # -- construction ---------------------------------------------------------------
    def add_group(self, concept: str, forms: Iterable[str]) -> None:
        """Register a concept with its surface forms (idempotent per form)."""
        concept_key = normalize_value(concept)
        bucket = self._forms_by_concept.setdefault(concept_key, set())
        all_forms = [concept_key] + [normalize_value(form) for form in forms]
        for form in all_forms:
            if not form:
                continue
            bucket.add(form)
            # First registration wins so ambiguous forms stay deterministic.
            self._concept_by_form.setdefault(form, concept_key)
        if all(len(tokenize(form)) == 1 for form in bucket):
            for form in bucket:
                self._token_concepts.setdefault(form, concept_key)

    def merge(self, other: "SemanticLexicon") -> "SemanticLexicon":
        """Return a new lexicon containing the groups of both."""
        merged = SemanticLexicon()
        for concept, forms in self._forms_by_concept.items():
            merged.add_group(concept, forms)
        for concept, forms in other._forms_by_concept.items():
            merged.add_group(concept, forms)
        return merged

    # -- queries --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._forms_by_concept)

    def concepts(self) -> List[str]:
        """All concept ids, sorted."""
        return sorted(self._forms_by_concept)

    def forms(self, concept: str) -> List[str]:
        """The surface forms registered for ``concept`` (sorted)."""
        return sorted(self._forms_by_concept.get(normalize_value(concept), set()))

    def lookup(self, value: object, *, normalized: bool = False) -> Optional[str]:
        """Return the concept whose surface form equals ``value``, if any.

        ``normalized=True`` skips re-normalising a ``value`` that already
        went through :func:`~repro.utils.text.normalize_value`.
        """
        return self._concept_by_form.get(value if normalized else normalize_value(value))

    def token_concept(self, token: str, *, normalized: bool = False) -> Optional[str]:
        """Return the concept of a single-token surface form (or ``None``).

        Only concepts all of whose forms are single tokens participate, so
        "st" resolves to *street* but "new" never resolves to *new york*.
        """
        return self._token_concepts.get(token if normalized else normalize_value(token))

    def same_concept(self, left: object, right: object) -> bool:
        """Return whether two values are registered forms of the same concept."""
        left_concept = self.lookup(left)
        return left_concept is not None and left_concept == self.lookup(right)

    def canonicalize(self, value: object) -> str:
        """Return a canonical string for ``value``.

        A full-value lexicon hit maps to the concept id; otherwise each token
        that is a (single-token) surface form is replaced by its concept id.
        Values with no lexicon hits are returned normalised but otherwise
        unchanged.

        >>> lex = SemanticLexicon({"street": ["st"], "canada": ["ca"]})
        >>> lex.canonicalize("Main St")
        'main street'
        >>> lex.canonicalize("CA")
        'canada'
        """
        concept = self.lookup(value)
        if concept is not None:
            return concept
        tokens = tokenize(value)
        replaced = [self._token_concepts.get(token, token) for token in tokens]
        return " ".join(replaced)

    def variant_pairs(self) -> List[Tuple[str, str]]:
        """All (form, other form) pairs within a concept — used by benchmark audits."""
        pairs: List[Tuple[str, str]] = []
        for forms in self._forms_by_concept.values():
            ordered = sorted(forms)
            for index, left in enumerate(ordered):
                for right in ordered[index + 1 :]:
                    pairs.append((left, right))
        return pairs


# -------------------------------------------------------------------------------------
# Default knowledge base
# -------------------------------------------------------------------------------------

_COUNTRIES: Dict[str, List[str]] = {
    "united states": ["us", "usa", "u.s.", "u.s.a.", "united states of america", "america"],
    "canada": ["ca", "can"],
    "germany": ["de", "deu", "ger", "deutschland"],
    "spain": ["es", "esp", "espana"],
    "france": ["fr", "fra"],
    "italy": ["it", "ita", "italia"],
    "united kingdom": ["uk", "gb", "gbr", "great britain", "britain"],
    "india": ["in", "ind"],
    "china": ["cn", "chn", "prc"],
    "japan": ["jp", "jpn"],
    "brazil": ["br", "bra", "brasil"],
    "mexico": ["mx", "mex"],
    "australia": ["au", "aus"],
    "netherlands": ["nl", "nld", "holland"],
    "switzerland": ["ch", "che"],
    "sweden": ["se", "swe"],
    "norway": ["no", "nor"],
    "denmark": ["dk", "dnk"],
    "finland": ["fi", "fin"],
    "poland": ["pl", "pol"],
    "portugal": ["pt", "prt"],
    "austria": ["at", "aut"],
    "belgium": ["be", "bel"],
    "greece": ["gr", "grc"],
    "ireland": ["ie", "irl"],
    "russia": ["ru", "rus", "russian federation"],
    "south korea": ["kr", "kor", "republic of korea", "korea"],
    "turkey": ["tr", "tur", "turkiye"],
    "argentina": ["ar", "arg"],
    "chile": ["cl", "chl"],
    "colombia": ["co", "col"],
    "egypt": ["eg", "egy"],
    "south africa": ["za", "zaf"],
    "nigeria": ["ng", "nga"],
    "kenya": ["ke", "ken"],
    "israel": ["il", "isr"],
    "saudi arabia": ["sa", "sau", "ksa"],
    "united arab emirates": ["ae", "are", "uae"],
    "singapore": ["sg", "sgp"],
    "thailand": ["th", "tha"],
    "vietnam": ["vn", "vnm", "viet nam"],
    "indonesia": ["id", "idn"],
    "philippines": ["ph", "phl"],
    "malaysia": ["my", "mys"],
    "new zealand": ["nz", "nzl"],
    "czech republic": ["cz", "cze", "czechia"],
    "hungary": ["hu", "hun"],
    "romania": ["ro", "rou"],
    "ukraine": ["ua", "ukr"],
    "pakistan": ["pk", "pak"],
}

_US_STATES: Dict[str, List[str]] = {
    "alabama": ["al"], "alaska": ["ak"], "arizona": ["az"], "arkansas": ["ar"],
    "california": ["ca."], "colorado": ["colo"], "connecticut": ["conn"],
    "delaware": ["del"], "florida": ["fl", "fla"], "georgia": ["ga"],
    "hawaii": ["hi"], "idaho": ["id."], "illinois": ["il", "ill"],
    "indiana": ["ind."], "iowa": ["ia"], "kansas": ["ks", "kan"],
    "kentucky": ["ky"], "louisiana": ["la"], "maine": ["me"],
    "maryland": ["md"], "massachusetts": ["ma", "mass"], "michigan": ["mi", "mich"],
    "minnesota": ["mn", "minn"], "mississippi": ["ms", "miss"], "missouri": ["mo"],
    "montana": ["mt", "mont"], "nebraska": ["ne", "neb"], "nevada": ["nv", "nev"],
    "new hampshire": ["nh"], "new jersey": ["nj"], "new mexico": ["nm"],
    "new york": ["ny"], "north carolina": ["nc"], "north dakota": ["nd"],
    "ohio": ["oh"], "oklahoma": ["ok", "okla"], "oregon": ["or", "ore"],
    "pennsylvania": ["pa", "penn"], "rhode island": ["ri"], "south carolina": ["sc"],
    "south dakota": ["sd"], "tennessee": ["tn", "tenn"], "texas": ["tx", "tex"],
    "utah": ["ut"], "vermont": ["vt"], "virginia": ["va"],
    "washington": ["wa", "wash"], "west virginia": ["wv"], "wisconsin": ["wi", "wis"],
    "wyoming": ["wy", "wyo"],
}

_MONTHS: Dict[str, List[str]] = {
    "january": ["jan"], "february": ["feb"], "march": ["mar"], "april": ["apr"],
    "may": [], "june": ["jun"], "july": ["jul"], "august": ["aug"],
    "september": ["sep", "sept"], "october": ["oct"], "november": ["nov"],
    "december": ["dec"],
}

_WEEKDAYS: Dict[str, List[str]] = {
    "monday": ["mon"], "tuesday": ["tue", "tues"], "wednesday": ["wed"],
    "thursday": ["thu", "thurs"], "friday": ["fri"], "saturday": ["sat"],
    "sunday": ["sun"],
}

_STREET_SUFFIXES: Dict[str, List[str]] = {
    "street": ["st"], "avenue": ["ave", "av"], "boulevard": ["blvd"],
    "road": ["rd"], "drive": ["dr."], "lane": ["ln"], "court": ["ct"],
    "place": ["pl"], "square": ["sq"], "highway": ["hwy"], "parkway": ["pkwy"],
    "terrace": ["ter"], "circle": ["cir"],
}

_COMPANY_SUFFIXES: Dict[str, List[str]] = {
    "incorporated": ["inc"], "corporation": ["corp"], "limited": ["ltd"],
    "company": ["co"], "limited liability company": ["llc"],
    "public limited company": ["plc"], "group": ["grp"],
    "international": ["intl"], "technologies": ["tech"],
    "manufacturing": ["mfg"], "associates": ["assoc"], "brothers": ["bros"],
}

_TITLES: Dict[str, List[str]] = {
    "doctor": ["dr"], "professor": ["prof"], "president": ["pres"],
    "senator": ["sen"], "representative": ["rep"], "governor": ["gov"],
    "general": ["gen"], "captain": ["capt"], "lieutenant": ["lt"],
    "sergeant": ["sgt"], "director": ["dir"], "manager": ["mgr"],
    "vice president": ["vp"], "chief executive officer": ["ceo"],
    "chief financial officer": ["cfo"], "chief technology officer": ["cto"],
    "chief operating officer": ["coo"],
}

_DEGREES: Dict[str, List[str]] = {
    "bachelor of science": ["bs", "b.s.", "bsc"],
    "bachelor of arts": ["ba", "b.a."],
    "master of science": ["ms", "m.s.", "msc"],
    "master of arts": ["ma."],
    "master of business administration": ["mba"],
    "doctor of philosophy": ["phd", "ph.d."],
    "doctor of medicine": ["md."],
    "juris doctor": ["jd"],
}

_ORGANIZATIONS: Dict[str, List[str]] = {
    "united nations": ["un"],
    "european union": ["eu"],
    "world health organization": ["who"],
    "national aeronautics and space administration": ["nasa"],
    "federal bureau of investigation": ["fbi"],
    "central intelligence agency": ["cia"],
    "north atlantic treaty organization": ["nato"],
    "international monetary fund": ["imf"],
    "world trade organization": ["wto"],
    "environmental protection agency": ["epa"],
    "food and drug administration": ["fda"],
    "centers for disease control and prevention": ["cdc"],
    "national basketball association": ["nba"],
    "national football league": ["nfl"],
    "major league baseball": ["mlb"],
    "national hockey league": ["nhl"],
    "federation internationale de football association": ["fifa"],
    "international olympic committee": ["ioc"],
}

_UNIVERSITIES: Dict[str, List[str]] = {
    "massachusetts institute of technology": ["mit"],
    "university of california los angeles": ["ucla"],
    "university of california berkeley": ["uc berkeley", "berkeley"],
    "new york university": ["nyu"],
    "university of southern california": ["usc"],
    "georgia institute of technology": ["georgia tech"],
    "california institute of technology": ["caltech"],
    "carnegie mellon university": ["cmu"],
    "university of texas at austin": ["ut austin"],
    "university of michigan": ["umich", "u of m"],
    "northeastern university": ["neu"],
    "worcester polytechnic institute": ["wpi"],
    "university of waterloo": ["uwaterloo"],
}

_DEPARTMENTS: Dict[str, List[str]] = {
    "human resources": ["hr"],
    "information technology": ["it dept"],
    "research and development": ["r&d", "rnd"],
    "public relations": ["pr"],
    "quality assurance": ["qa"],
    "customer service": ["cs"],
    "accounts payable": ["ap"],
    "operations": ["ops"],
}

_CURRENCIES: Dict[str, List[str]] = {
    "us dollar": ["usd", "dollar", "$"],
    "euro": ["eur", "€"],
    "british pound": ["gbp", "pound sterling"],
    "japanese yen": ["jpy", "yen"],
    "swiss franc": ["chf"],
    "canadian dollar": ["cad"],
    "australian dollar": ["aud"],
    "indian rupee": ["inr", "rupee"],
    "chinese yuan": ["cny", "rmb", "renminbi"],
}

_UNITS: Dict[str, List[str]] = {
    "kilometer": ["km"], "kilogram": ["kg"], "kilometers per hour": ["km/h", "kph"],
    "miles per hour": ["mph"], "pound": ["lb", "lbs"], "ounce": ["oz"],
    "gallon": ["gal"], "liter": ["l", "litre"], "meter": ["m", "metre"],
    "centimeter": ["cm"], "millimeter": ["mm"], "square feet": ["sq ft", "sqft"],
    "gigabyte": ["gb"], "megabyte": ["mb"], "terabyte": ["tb"],
}

_GENRES: Dict[str, List[str]] = {
    "science fiction": ["sci-fi", "scifi", "sf"],
    "documentary": ["doc", "docu"],
    "romantic comedy": ["rom-com", "romcom"],
    "rhythm and blues": ["r&b", "rnb"],
    "hip hop": ["hip-hop", "hiphop"],
    "electronic dance music": ["edm"],
    "country and western": ["country"],
    "heavy metal": ["metal"],
}

_GENERAL_SYNONYMS: Dict[str, List[str]] = {
    "car": ["automobile", "auto"],
    "movie": ["film", "motion picture"],
    "physician": ["medical doctor"],
    "attorney": ["lawyer"],
    "salary": ["wage", "pay"],
    "vaccination": ["immunization", "inoculation"],
    "television": ["tv"],
    "telephone": ["phone"],
    "photograph": ["photo", "picture"],
    "laboratory": ["lab"],
    "apartment": ["apt", "flat"],
    "building": ["bldg"],
    "department": ["dept"],
    "government": ["govt"],
    "number": ["no.", "num", "nr"],
    "mount": ["mt."],
    "saint": ["st."],
    "fort": ["ft."],
    "north": ["n."],
    "south": ["s."],
    "east": ["e."],
    "west": ["w."],
}


def default_lexicon() -> SemanticLexicon:
    """Build the default knowledge base combining every built-in domain.

    The lexicon is rebuilt on each call (it is cheap); callers that embed many
    values should hold on to one embedder instance, which keeps one lexicon.
    """
    lexicon = SemanticLexicon()
    for domain in (
        _COUNTRIES,
        _US_STATES,
        _MONTHS,
        _WEEKDAYS,
        _STREET_SUFFIXES,
        _COMPANY_SUFFIXES,
        _TITLES,
        _DEGREES,
        _ORGANIZATIONS,
        _UNIVERSITIES,
        _DEPARTMENTS,
        _CURRENCIES,
        _UNITS,
        _GENRES,
        _GENERAL_SYNONYMS,
    ):
        for concept, forms in domain.items():
            lexicon.add_group(concept, forms)
    return lexicon


def domain_groups() -> Dict[str, Dict[str, List[str]]]:
    """Expose the raw domain dictionaries (used by the benchmark generators)."""
    return {
        "countries": dict(_COUNTRIES),
        "us_states": dict(_US_STATES),
        "months": dict(_MONTHS),
        "weekdays": dict(_WEEKDAYS),
        "street_suffixes": dict(_STREET_SUFFIXES),
        "company_suffixes": dict(_COMPANY_SUFFIXES),
        "titles": dict(_TITLES),
        "degrees": dict(_DEGREES),
        "organizations": dict(_ORGANIZATIONS),
        "universities": dict(_UNIVERSITIES),
        "departments": dict(_DEPARTMENTS),
        "currencies": dict(_CURRENCIES),
        "units": dict(_UNITS),
        "genres": dict(_GENRES),
        "general_synonyms": dict(_GENERAL_SYNONYMS),
    }
