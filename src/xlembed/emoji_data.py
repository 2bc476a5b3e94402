"""Character data for emoji and emoticon token detection.

Emoji coverage follows the pictographic blocks of the Unicode emoji
recommendation: base pictographs, regional indicator pairs (flags),
keycap sequences, skin-tone modifiers, ZWJ sequences and variation
selectors. Digits, '#' and '*' are deliberately excluded from the
pictographic core so that plain numerals and hashtags never count as
emoji; they participate only through keycap sequences.
"""

import re

# Pictographic code point ranges (inclusive). Block-level granularity:
# unassigned points inside an emoji block are treated as emoji, which is
# harmless for tokenization and keeps the table auditable.
PICTOGRAPHIC_RANGES = (
    (0x00A9, 0x00A9),    # copyright
    (0x00AE, 0x00AE),    # registered
    (0x203C, 0x203C),    # double exclamation
    (0x2049, 0x2049),    # exclamation question
    (0x2122, 0x2122),    # trade mark
    (0x2139, 0x2139),    # information
    (0x2194, 0x2199),    # arrows
    (0x21A9, 0x21AA),    # hooked arrows
    (0x231A, 0x231B),    # watch, hourglass
    (0x2328, 0x2328),    # keyboard
    (0x23CF, 0x23CF),    # eject
    (0x23E9, 0x23F3),    # AV symbols
    (0x23F8, 0x23FA),    # pause, stop, record
    (0x24C2, 0x24C2),    # circled M
    (0x25AA, 0x25AB),    # small squares
    (0x25B6, 0x25B6),    # play
    (0x25C0, 0x25C0),    # reverse
    (0x25FB, 0x25FE),    # medium squares
    (0x2600, 0x27BF),    # miscellaneous symbols, dingbats
    (0x2934, 0x2935),    # curved arrows
    (0x2B05, 0x2B07),    # heavy arrows
    (0x2B1B, 0x2B1C),    # large squares
    (0x2B50, 0x2B50),    # star
    (0x2B55, 0x2B55),    # heavy circle
    (0x3030, 0x3030),    # wavy dash
    (0x303D, 0x303D),    # part alternation mark
    (0x3297, 0x3297),    # circled congratulation
    (0x3299, 0x3299),    # circled secret
    (0x1F000, 0x1F0FF),  # mahjong, dominoes, playing cards
    (0x1F170, 0x1F171),  # negative squared A, B
    (0x1F17E, 0x1F17F),  # negative squared O, P
    (0x1F18E, 0x1F18E),  # negative squared AB
    (0x1F191, 0x1F19A),  # squared CL..VS
    (0x1F1E6, 0x1F1FF),  # regional indicators
    (0x1F201, 0x1F202),  # squared katakana
    (0x1F21A, 0x1F21A),  # squared CJK
    (0x1F22F, 0x1F22F),
    (0x1F232, 0x1F23A),
    (0x1F250, 0x1F251),
    (0x1F300, 0x1F5FF),  # misc symbols and pictographs
    (0x1F600, 0x1F64F),  # emoticons block
    (0x1F680, 0x1F6FF),  # transport and map
    (0x1F700, 0x1F77F),  # alchemical
    (0x1F780, 0x1F7FF),  # geometric shapes extended
    (0x1F800, 0x1F8FF),  # supplemental arrows C
    (0x1F900, 0x1F9FF),  # supplemental symbols and pictographs
    (0x1FA00, 0x1FA6F),  # chess symbols
    (0x1FA70, 0x1FAFF),  # symbols and pictographs extended A
)

ZWJ = "\u200D"
VARIATION_SELECTORS = "\uFE0E\uFE0F"
KEYCAP_MARK = "\u20E3"
SKIN_TONE_LO, SKIN_TONE_HI = 0x1F3FB, 0x1F3FF
TAG_LO, TAG_HI = 0xE0020, 0xE007F


def _char_class(ranges):
    parts = []
    for lo, hi in ranges:
        parts.append(chr(lo) if lo == hi else chr(lo) + "-" + chr(hi))
    return "[" + "".join(parts) + "]"


_PICT = _char_class(PICTOGRAPHIC_RANGES)
_TAGS = _char_class(((TAG_LO, TAG_HI),))
_RI = _char_class(((0x1F1E6, 0x1F1FF),))

# One pictographic unit: base char, optional variation selector, optional
# skin tone, optional tag sequence (subdivision flags).
_UNIT = f"{_PICT}[{VARIATION_SELECTORS}]?(?:{_char_class(((SKIN_TONE_LO, SKIN_TONE_HI),))})?(?:{_TAGS}+)?"

# A full emoji grapheme cluster: a flag pair, a keycap sequence, or a
# ZWJ-joined run of pictographic units.
EMOJI_CLUSTER_PATTERN = (
    f"(?:{_RI}{_RI}"
    f"|[0-9#*]\uFE0F?{KEYCAP_MARK}"
    f"|{_UNIT}(?:{ZWJ}{_UNIT})*)"
)

EMOJI_TOKEN_RE = re.compile(f"(?:{EMOJI_CLUSTER_PATTERN})+\\Z")


def is_emoji_token(token: str) -> bool:
    """True when the token is one or more complete emoji clusters."""
    return bool(token) and EMOJI_TOKEN_RE.match(token) is not None


# Western-style emoticons kept whole during tokenization. Fixed list;
# longest match wins, so ":(((" is preferred over ":((".
EMOTICONS = (
    ":)", ":-)", ":))", ":)))", "(:",
    ":(", ":-(", ":((", ":(((", "):",
    ";)", ";-)", ";))",
    ":D", ":-D", ";D", "=D", "xD", "XD",
    ":P", ":-P", ":p", ":-p", ";P", "=P",
    ":O", ":-O", ":o", ":-o",
    ":/", ":-/", ":\\", ":-\\", "=/", "=\\",
    ":|", ":-|",
    ":'(", ":'-(", ":')", ":'-)",
    "=)", "=))", "=(", "=((",
    ":*", ":-*",
    "<3", "</3",
    "^^", "^_^", "^-^", "-_-", "-.-",
    "o_O", "O_o", "o.O", "O.o", "o_o", "O_O",
    "T_T", ":3", ":c", ":C", "D:",
    ">:(", ">:-(", ">:)", "\\o/",
)

EMOTICON_SET = frozenset(EMOTICONS)


def _emoticon_pattern(entry: str) -> str:
    pat = re.escape(entry)
    if entry[0].isalnum() or entry[0] == "_":
        pat = r"(?<!\w)" + pat
    if entry[-1].isalnum() or entry[-1] == "_":
        pat = pat + r"(?!\w)"
    return pat


EMOTICON_PATTERN = "(?:" + "|".join(
    _emoticon_pattern(e) for e in sorted(EMOTICONS, key=len, reverse=True)
) + ")"
