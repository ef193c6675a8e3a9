"""Parsing and serialization of function definitions.

Two concrete formats:

* A polynomial expression language over variables ``x1..xn`` with
  rational/decimal constants, ``+ - *`` and parentheses.  Grammar::

      expr     := term (('+'|'-') term)*
      term     := ('-')? factor ('*' factor)*
      factor   := rational | variable | '(' expr ')'
      variable := 'x' [1-9][0-9]*
      rational := integer ('/' positive-integer)? | decimal
      decimal  := (digits '.' digits? | '.' digits | digits) exponent?
      exponent := ('e'|'E') ('+'|'-')? digit{1,3}

  ``*`` binds tighter than binary ``+``/``-``; whitespace is
  insignificant between tokens (fraction literals like ``1/2`` are a
  single token, written without spaces).  Parsing uses exact rational
  arithmetic and returns the fully expanded multilinear normal form:
  products distributed, powers reduced by x_i**2 -> 1, like terms merged.
  Expansion uses ``mul``'s coefficient convolution, ``boolfn._convolve``,
  on ``{mask: Fraction}`` dicts, except that a product with a variable
  XORs each mask with the variable's; each product, and all the products
  of one expression together, are capped by pair count.

* A truth-table file, either CSV (a ``# n=<k>`` comment line, an
  ``index,value`` header, then one row per point) or a JSON object
  ``{"n": k, "values": [...]}``.  Rows may name the point by table index
  or by an explicit space-separated ±1 tuple such as ``+1 -1 +1``.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from fractions import Fraction
from numbers import Rational

import numpy as np

from .boolfn import (MAX_N, MultilinearPolynomial, TruthTable, _check_exact_pairs,
                     _check_n, _convolve, point_to_index)


class ParseError(ValueError):
    """Syntax or format error; ``position`` is a 0-based offset when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)"

_TOKEN_RE = re.compile(rf"""
    (?: (?P<ws>\s+)  # only at the start, where no token's match took it
      | (?P<frac>(?P<numer>\d+)/(?P<denom>\d+))
      | (?P<num>{_DECIMAL}(?:[eE][+-]?(?P<exp>\d+))?)
      | (?P<var>x(?P<index>\d+))
      | (?P<op>[+\-*()])
      | (?P<bad>\S)
    ) \s*  # a match runs on to where the next token starts
""", re.VERBOSE)


def _too_many_digits(what: str) -> str:
    """The message for an integer longer than ``int`` converts from text."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"


def _tokenize(text: str):
    """Yield ``(kind, value, start, end)`` per token of ``text``, then an end token."""
    for m in _TOKEN_RE.finditer(text):
        kind, pos, end = m.lastgroup, m.start(), m.end()
        try:
            if kind == "frac":
                if int(m["denom"]) == 0:
                    raise ParseError("zero denominator in rational", pos)
                yield "num", Fraction(int(m["numer"]), int(m["denom"])), pos, end
            elif kind == "num":
                # a float's repr needs at most 3 exponent digits; a longer
                # exponent would make the exact rational huge
                if len(m["exp"] or "") > 3:
                    raise ParseError("decimal exponent has more than 3 digits", pos)
                yield "num", Fraction(m[kind]), pos, end
            elif kind == "var":
                if m["index"][0] == "0":
                    raise ParseError(
                        f"variable index must not start with 0: {m[kind]!r}", pos)
                yield "var", int(m["index"]), pos, end
            elif kind == "op":
                yield m[kind], None, pos, end
            elif kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", pos)
        except ParseError:
            raise
        except ValueError:  # only int() of a digit string longer than it converts
            what = "variable index" if kind == "var" else "number"
            raise ParseError(_too_many_digits(what), pos) from None
    yield None, None, len(text), len(text)


#: Most term pairs the products of one expression convolve in all: the
#: canonical text of a dense table at n = 16 needs 16 * 2**15.
_MAX_PARSE_PAIRS = 1 << 20


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.next = ("", None, 0, 0)  # the pending token, or kind "" before a pull
        self.max_var = 0
        self.pairs = 0  # exact term pairs convolved by every '*' so far

    def peek(self):
        if self.next[0] == "":
            self.next = next(self.tokens)
        return self.next

    def take(self):
        tok = self.peek()
        self.next = ("", None, tok[3], tok[3])  # where the next token starts
        return tok

    def expr(self) -> dict:
        poly = self.term()  # a fresh dict: the sum accumulates into it
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            _convolve(self.term().items(), ((0, sign),), poly)
        return {m: v for m, v in poly.items() if v}

    def term(self) -> dict:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        poly = self.factor()
        while self.peek()[0] == "*":
            self.take()
            rhs = self.factor()
            _check_exact_pairs(len(poly), len(rhs))
            self.pairs += len(poly) * len(rhs)
            if self.pairs > _MAX_PARSE_PAIRS:
                raise ValueError(f"exact products of the expression exceed the "
                                 f"cap of {_MAX_PARSE_PAIRS} term pairs in all")
            if len(rhs) == 1 and 1 in rhs.values():
                # times a variable: XOR with one mask is a bijection, so
                # no two terms meet and every value stays as it is
                [mk] = rhs
                poly = {m ^ mk: v for m, v in poly.items()}
            else:
                poly = {m: v for m, v in _convolve(poly.items(), rhs.items()).items() if v}
        return _convolve(poly.items(), ((0, -1),)) if negate else poly

    def factor(self) -> dict:
        kind, value, pos, _ = self.take()
        if kind == "num":
            return {0: value} if value else {}
        if kind == "var":
            _check_n(value)  # before the shift builds a value-bit integer
            self.max_var = max(self.max_var, value)
            return {1 << (value - 1): Fraction(1)}
        if kind == "(":
            poly = self.expr()
            kind, _, pos, _ = self.take()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return poly
        raise ParseError(
            "expected a number, variable or '('"
            + (f", got {kind!r}" if kind else ""), pos)


def parse_poly(text: str, declared_n: int | None = None) -> MultilinearPolynomial:
    """Parse an expression into multilinear normal form.

    ``n`` is ``declared_n`` when given (every variable index must fit),
    otherwise the largest variable index seen (1 for a constant).
    """
    parser = _Parser(text)
    if parser.peek()[0] is None:
        raise ParseError("empty expression", 0)
    try:
        coeffs = parser.expr()
    except RecursionError:  # the next token's position, pulled or not
        raise ParseError("expression nests too deeply", parser.next[2]) from None
    if kind := parser.peek()[0]:
        raise ParseError(f"unexpected {kind!r}", parser.next[2])
    if declared_n is not None:
        if declared_n < 1:
            raise ParseError(f"declared n must be positive, got {declared_n}")
        if parser.max_var > declared_n:
            raise ParseError(
                f"variable x{parser.max_var} exceeds declared n={declared_n}")
        n = declared_n
    else:
        n = max(parser.max_var, 1)
    return MultilinearPolynomial(n, coeffs)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _coeff_string(value) -> str:
    """Exact fraction when representable, decimal repr otherwise."""
    # numpy integers have no as_integer_ratio, so rationals go through
    # Fraction; any other real, such as a numpy float32, through float
    exact = Fraction(value) if isinstance(value, Rational) else float(value)
    num, den = exact.as_integer_ratio()
    if not isinstance(value, Fraction) and (abs(num) > 2**53 or den > 2**53):
        return repr(float(value))
    return str(num) if den == 1 else f"{num}/{den}"


def _byte_tables(entry) -> tuple:
    """Per mask byte, a 256-entry object array: ``entry(variables)`` for
    the 1-based variables whose bits that byte value sets."""
    tables = []
    for base in range(0, MAX_N, 8):
        table = np.empty(256, dtype=object)
        for byte in range(256):
            table[byte] = entry([base + j + 1 for j in range(8) if byte >> j & 1])
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _piece_tables(piece) -> tuple:
    """Per mask byte, a 512-entry object array of text: at byte value
    ``b``, ``piece(j)`` joined over the variables ``j`` that ``b`` sets,
    and at ``256 + b`` that text without its first character."""
    tables = []
    for table in _byte_tables(lambda js: "".join(map(piece, js))):
        table = np.array([*table, *(text[1:] for text in table)], dtype=object)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _byte_pieces(tables: tuple, masks: np.ndarray) -> list:
    """Per mask byte any mask uses, byte 0 first, the list of each mask's
    entry of that byte's table from ``_piece_tables``.  Each mask takes
    its first nonzero byte's entry without its first character."""
    last = max(0, int(masks.max()).bit_length() - 1) // 8
    # a mask reads the tables' second halves up to its first nonzero
    # byte: a zero byte's entry is "" in both halves
    offset = 256
    pieces = []
    for i in range(last):
        byte = (masks >> (8 * i)) & 255
        pieces.append(tables[i][byte + offset].tolist())
        offset *= byte == 0
    # no mask sets a bit above the last byte in use
    byte = masks >> (8 * last) if last else masks
    pieces.append(tables[last][byte + offset].tolist())
    return pieces


def _term_pieces(heads, tables, masks, negative, which, ends=()) -> list:
    """The terms' rows of pieces as one list, row after row.

    A term's row is its head, ``heads[which + len(heads) // 2 *
    negative]`` (the first half of ``heads`` for positive terms, the
    second for negative ones, ``which`` indexing each half), then its
    pieces of ``tables`` from ``_byte_pieces``, then ``ends``.  Each
    column of the rows is put in place by one slice assignment."""
    columns = [heads[which + len(heads) // 2 * negative].tolist(),
               *_byte_pieces(tables, masks), *([end] * masks.size for end in ends)]
    parts = [None] * (len(columns) * masks.size)
    for i, column in enumerate(columns):
        parts[i::len(columns)] = column
    return parts


_NAMES = _piece_tables("*x{}".format)
_VARIABLES = _byte_tables(list)


def term_variables(masks: np.ndarray) -> list:
    """Each mask's variables as a fresh list of 1-based indices, ascending."""
    # a sum of the bytes' lists, so no list is shared with the tables
    out = _VARIABLES[0][masks & 255] + _VARIABLES[1][(masks >> 8) & 255]
    for i in range(2, len(_VARIABLES)):
        out += _VARIABLES[i][(masks >> (8 * i)) & 255]
    return out.tolist()


def canonical_terms(poly: MultilinearPolynomial) -> tuple:
    """``(masks, values, negative, texts, which)`` of the terms ordered by
    (subset size, mask value).

    ``masks`` and ``values`` are the terms' arrays in that order and
    ``negative`` each value's sign.  ``texts`` is an object array of
    coefficient strings of magnitudes and ``which`` each term's index into
    it, so ``texts[which]`` are the terms' magnitude strings.  For a float
    array ``texts`` holds each distinct magnitude once, ascending; for
    exact values it holds one string per term.
    """
    order = np.lexsort((poly.masks, np.bitwise_count(poly.masks)))
    masks, values = poly.masks[order], poly.values[order]
    negative = values < 0
    if values.dtype == np.float64:
        distinct, which = np.unique(np.abs(values), return_inverse=True)
        texts = np.array([_coeff_string(v) for v in distinct.tolist()],
                         dtype=object)
        return masks, values, negative, texts, which
    texts = []
    for value, neg in zip(values.tolist(), negative.tolist()):
        mag = -value if neg else value
        # a Fraction's str is what _coeff_string gives, and cheaper
        texts.append(str(mag) if type(mag) is Fraction else _coeff_string(mag))
    return (masks, values, negative, np.array(texts, dtype=object),
            np.arange(values.size))


def serialize_poly(poly: MultilinearPolynomial) -> str:
    """Canonical text form: terms sorted by (subset size, mask value).

    Exact coefficients, and floats whose ratio fits in 2**53, are written
    as fractions, so ``parse_poly(serialize_poly(p))`` reproduces them
    exactly.  Any other float is written as its ``repr``, which reads
    back as that decimal's exact rational: 0.1 comes back as
    ``Fraction(1, 10)``, whose float is 0.1 again.  The text is stable
    from the second serialization on.
    """
    masks, _, negative, texts, which = canonical_terms(poly)
    return _join_terms(masks, negative, texts, which)


def _join_terms(masks, negative, texts, which) -> str:
    """``serialize_poly``'s text from the arrays of ``canonical_terms``,
    built from whole-array pieces (``_term_pieces``).

    A term's head is its sign (``" + "`` or ``" - "``), its magnitude and
    ``*``; a magnitude 1 is left out with its ``*``.  Its variables'
    names follow, such as ``x9*x11``."""
    if not masks.size:
        return "0"
    mags = texts.tolist()
    heads = np.array([f" {sign} " if mag == "1" else f" {sign} {mag}*"
                      for sign in "+-" for mag in mags], dtype=object)
    parts = _term_pieces(heads, _NAMES, masks, negative, which)
    # the first term has no separator; only it can be the constant, whose
    # magnitude stays, 1 included
    first = parts[0][3:] if masks[0] else mags[which[0]]
    parts[0] = "-" + first if negative[0] else first
    return "".join(parts)


# ---------------------------------------------------------------------------
# Truth-table files
# ---------------------------------------------------------------------------

_N_RE = re.compile(r"n\s*=\s*(\d+)")

#: The first line that begins with a digit: where plain data rows start.
#: A line starts after a newline, a lone carriage return, ``\v`` or ``\f``.
_FIRST_ROW_RE = re.compile(r"(?:^|(?<=[\r\v\f]))[ \t]*\d", re.ASCII | re.MULTILINE)
#: The bytes a plain data row may hold.
_PLAIN_BYTES = b"0123456789,.eE+- \t\n\r\v\f"
#: A ``bytes.translate`` table that makes every line break a newline; a
#: CRLF becomes an empty line.
_BREAKS = bytes.maketrans(b"\r\v\f", b"\n\n\n")
#: A line of spaces and tabs alone, after a newline.
_BLANK_LINE_RE = re.compile(rb"\n[ \t]+(?=\n|\Z)")
#: A ``bytes.translate`` table of the classes of a plain row's bytes: a
#: digit reads as 0, a sign as +, an exponent mark as e and a line break
#: as a newline.
_ROW_CLASSES = bytes.maketrans(b"123456789E-\r", b"000000000e+\n")
#: An exponent of 4 or more digits, in those classes.
_LONG_EXPONENT_RE = re.compile(rb"e\+?0000")
#: Each data row's index and value, as the fast path reads them.
_ROW_DTYPE = np.dtype([("index", np.int64), ("value", np.float64)])


def _parse_first_field(field: str, n: int, lineno: int) -> int:
    """A row's first field: a table index, or an explicit ±1 point."""
    field = field.strip()
    if re.fullmatch(r"\d+", field):
        try:
            index = int(field)
        except ValueError:
            raise ParseError(
                f"line {lineno}: {_too_many_digits('index')}") from None
        if index >= (1 << n):
            raise ParseError(f"line {lineno}: index {index} out of range")
        return index
    parts = field.split()
    if len(parts) != n:
        raise ParseError(
            f"line {lineno}: point has {len(parts)} entries, expected {n}")
    point = []
    for p in parts:
        if p in ("1", "+1"):
            point.append(1)
        elif p == "-1":
            point.append(-1)
        else:
            raise ParseError(f"line {lineno}: non-±1 point entry {p!r}")
    return point_to_index(point)


#: A plain decimal value, which ``float`` reads as the fast path does.
_PLAIN_VALUE_RE = re.compile(rf"[+-]?{_DECIMAL}(?:[eE][+-]?\d+)?", re.ASCII)


def _parse_value(field: str, lineno: int) -> float:
    """A row's value: a plain decimal read by ``float``, which rounds
    correctly as ``float(Fraction(s))`` does, at any length, so a value
    reads as on the fast path; anything else through ``Fraction``.  -0 is
    stored as +0.0."""
    # the same exponent cap as the expression parser: a longer exponent
    # would make the exact rational huge
    exponent = field.lower().partition("e")[2]
    if sum(c.isdigit() for c in exponent) > 3:
        raise ParseError(
            f"line {lineno}: value {field!r} has an exponent of more than 3 digits")
    text = field.strip()
    try:
        value = float(text if _PLAIN_VALUE_RE.fullmatch(text) else Fraction(text))
    except (ValueError, ZeroDivisionError):
        limit = sys.get_int_max_str_digits()
        if max(map(len, re.findall(r"\d+", text)), default=0) > limit:
            digits = sum(c.isdigit() for c in text)
            raise ParseError(f"line {lineno}: value has {digits} digits, "
                             f"more than {limit} in one integer") from None
        raise ParseError(f"line {lineno}: unparseable value {field!r}") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: value {field!r} is outside float range")
    return value + 0.0


def _split_lines(lines) -> tuple:
    """The ``n`` the header lines declare (None if none) and the data rows
    as ``(lineno, line)``; blank, comment and header lines are skipped."""
    n = None
    rows = []
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _N_RE.search(line)
                if m:
                    n = int(m.group(1))
                continue
            if re.fullmatch(r"n\s*=\s*\d+", line):
                n = int(_N_RE.search(line).group(1))
                continue
            if line.lower().replace(" ", "") == "index,value":
                continue
            rows.append((lineno, line))
    except ValueError:  # only int() of a digit string longer than it converts
        raise ParseError(f"line {lineno}: {_too_many_digits('n')}") from None
    return n, rows


def _table_n(n: int | None, count: int) -> int:
    """The table's n, checked against (or inferred from) its row count."""
    if not count:
        raise ParseError("table file has no data rows")
    if n is None:
        if count & (count - 1) or count < 2:
            raise ParseError(
                f"no 'n=' header and row count {count} is not a power of two")
        n = count.bit_length() - 1
    elif n > MAX_N:
        _check_n(n)  # before 1 << n builds an n-bit integer
    if count != (1 << n):
        raise ParseError(f"expected {1 << n} rows for n={n}, found {count}")
    return n


def _plain_body(body: str) -> str | None:
    """``body`` for numpy's text reader, which then reads each row as the
    row-by-row reader does, wherever it reads the row at all; None when
    the body is not plain.

    A plain body is ASCII and holds only digits, ``, . e E + -``, spaces,
    tabs and the line breaks ``\n``, ``\r``, ``\v`` and ``\f``, where
    ``str.splitlines`` breaks too.  The text reader breaks lines at
    ``\n`` and ``\r`` alone and refuses a line of spaces and tabs, so
    ``\v`` and ``\f`` become newlines, and such a line an empty one,
    which both readers skip.  No index field is signed: the row-by-row
    reader reads ``+1``/``-1`` as a ±1 point or refuses it, and ``-0``
    as neither.  No exponent has 4 digits, and no index field has more
    digits than ``int`` converts from text: the row-by-row reader
    refuses both.
    """
    if not body.isascii():
        return None
    data = body.encode()
    if data.translate(None, _PLAIN_BYTES):
        return None
    if b"\v" in data or b"\f" in data:
        data = data.translate(_BREAKS)
    # spaces and tabs are dropped, so an index field is what follows a
    # line break, and a blank line is an empty one
    classes = b"\n" + data.translate(_ROW_CLASSES, b" \t")
    codes = np.frombuffer(classes, np.uint8)
    breaks = codes == ord("\n")
    limit = sys.get_int_max_str_digits()
    if (np.any((codes[1:] == ord("+")) & breaks[:-1])
            or _LONG_EXPONENT_RE.search(classes)
            or limit and b"\n" + b"0" * (limit + 1) in classes):
        return None
    if (b" " in data or b"\t" in data) and np.any(breaks[1:] & breaks[:-1]):
        data = _BLANK_LINE_RE.sub(b"\n", data.translate(_BREAKS))
    return data.decode()


def _parse_plain_rows(text: str) -> TruthTable | None:
    """The table of a file whose data rows are all plain, else None.

    A plain file is header, comment and blank lines followed by data rows
    ``index,decimal``, one to a line, with blank lines between, that
    ``_plain_body`` admits and numpy's C text reader reads.  That reader
    converts a value as ``float`` does, rounding a decimal correctly, as
    ``float(Fraction(s))`` does; -0 is stored as +0.0, since a Fraction
    has no sign of zero.  Any file this path declines (a value out of
    float range, an index out of range, duplicated or missing, a row the
    reader refuses) goes to the row-by-row reader, which reports the
    error.
    """
    first = _FIRST_ROW_RE.search(text)
    if first is None:
        return None
    n, rows = _split_lines(text[:first.start()].splitlines())
    body = None if rows else _plain_body(text[first.start():])
    if body is None:
        return None
    try:
        # newline=None reads \r\n and a lone \r as line breaks
        read = np.loadtxt(io.StringIO(body, newline=None), dtype=_ROW_DTYPE,
                          delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    n = _table_n(n, read.size)
    index, values = read["index"], read["value"]
    if (index.max() >= 1 << n or not np.all(np.bincount(index) == 1)
            or not np.all(np.isfinite(values))):
        return None
    values += 0.0  # -0.0 becomes +0.0
    table = np.empty_like(values)
    table[index] = values
    return TruthTable(n, table)


def _parse_rows(text: str) -> TruthTable:
    """The table of a CSV file, read one row at a time."""
    n, rows = _split_lines(text.splitlines())
    n = _table_n(n, len(rows))
    values = np.full(1 << n, np.nan)
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'index,value'")
        index = _parse_first_field(fields[0], n, lineno)
        if not np.isnan(values[index]):
            raise ParseError(f"line {lineno}: duplicate index {index}")
        values[index] = _parse_value(fields[1], lineno)
    return TruthTable(n, values)


def _parse_table_json(text: str) -> TruthTable:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON table: {exc}") from None
    except ValueError:  # only int() of a digit string longer than it converts
        # the literal: a digit run that long, with its sign, in no float
        digits = sys.get_int_max_str_digits() + 1
        m = re.search(rf"(?<![\w.+-])-?\d{{{digits},}}(?![\w.])", text)
        raise ParseError(_too_many_digits("an integer"),
                         m and m.start()) from None
    if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
        raise ParseError("JSON table must be an object with 'n' and 'values'")
    n = obj["n"]
    values = obj["values"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"'n' must be a positive integer, got {n!r}")
    _check_n(n)  # before 1 << n builds an n-bit integer
    if not isinstance(values, list) or len(values) != (1 << n):
        raise ParseError(
            f"'values' must list all {1 << n} entries for n={n}")
    # np.array reads a string or a bool as a number and None as NaN, so an
    # entry that is no int or float is refused.  The entries are looked at
    # one by one only if the text from the first '[' to the last ']', which
    # holds the list, has a byte that a plain number row would not.
    body = text[text.index("[") + 1:text.rindex("]")]
    if body.encode().translate(None, _PLAIN_BYTES):
        for index, value in enumerate(values):
            if type(value) not in (int, float):
                raise ParseError(
                    f"'values' entry {index} is not a number, got {value!r}")
    return TruthTable(n, np.array(values, dtype=np.float64))


def parse_table(text: str) -> TruthTable:
    """Parse a table file, auto-detecting JSON versus CSV."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty table file")
    if stripped.startswith("{"):
        return _parse_table_json(text)
    return _parse_plain_rows(text) or _parse_rows(text)
