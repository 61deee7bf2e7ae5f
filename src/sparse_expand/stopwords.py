"""Built-in minimal stopword lists and the stopword-file loader.

The bundled lists are deliberately small: common function words only.
Override with a custom file (one word per line, '#' comments) wherever a
chain is constructed.
"""

from __future__ import annotations

from pathlib import Path

from .files import read_lines

ENGLISH = frozenset("""
a about above after again against all am an and any are as at
be because been before being below between both but by
can cannot could
did do does doing down during
each
few for from further
had has have having he her here hers herself him himself his how
i if in into is it its itself
just
me more most my myself
no nor not now
of off on once only or other our ours ourselves out over own
same she should so some such
than that the their theirs them themselves then there these they this those through to too
under until up upon
very
was we were what when where which while who whom why will with would
you your yours yourself yourselves
""".split())

GERMAN = frozenset("""
aber alle allem allen aller alles als also am an andere anderem anderen anderer anderes
auch auf aus bei beim bin bis bist
da damit dann das dass dem den denn der des dessen die dies diese diesem diesen dieser dieses
doch dort du durch
ein eine einem einen einer eines er es euer eure
für
hab habe haben hat hatte hatten hier hin hinter
ich ihm ihn ihr ihre im in ist
ja jede jedem jeden jeder jedes jener jetzt
kann kein keine können
machen man mein meine mich mir mit muss
nach nicht nichts noch nun nur
ob oder ohne
sehr sein seine sich sie sind so soll sollen
über um und uns unser unter
viel vom von vor
war waren was weil weiter wenn wer werde werden wie wieder will wir wird wo
zu zum zur
""".split())

BY_LANG = {"en": ENGLISH, "de": GERMAN}


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: UTF-8, one word per line, '#' starts a comment."""
    words = set()
    for _, line in read_lines(path):
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(word.lower())
    return frozenset(words)
