// Package jsonbytes writes JSON strings and numbers and reformats JSON
// documents with plain byte loops, producing byte for byte what encoding/json
// produces, without its reflection or its scanner. The metrics snapshot
// (internal/obs) and the result store's wire encoding (internal/store) are
// written with it; FuzzCompactIndent here and the differential tests in obs
// and store hold it to encoding/json.
//
// AppendCompact and Indent do not validate: they take JSON that is already
// valid (Indent: compact too), which is what their callers hold by
// construction — a registry they wrote, or a value decoded by encoding/json.
// SkipValue is the one validator: it accepts exactly what json.Valid accepts,
// so a reader can check a document and find its parts in one pass, stepping
// over the whitespace between them with SkipSpace (store.DecodeEntry);
// FuzzSkipValue holds it to json.Valid.
package jsonbytes

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string the way json.Marshal writes a Go
// string: HTML-escaped (<, >, & as \u003c, \u003e, \u0026), U+2028 and U+2029
// escaped, each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f the way json.Marshal writes a float64: the shortest
// representation that round-trips, in exponent form below 1e-6 and from 1e21
// up (exponent without leading zeros). NaN and the infinities have no JSON
// form and are an error, as they are for json.Marshal.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonbytes: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 → e-7
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendCompact appends the valid JSON src with the whitespace outside its
// strings removed and, inside them, <, >, &, U+2028 and U+2029 escaped:
// exactly what json.Marshal writes for json.RawMessage(src).
func AppendCompact(dst, src []byte) []byte {
	start := 0
	for i := 0; i < len(src); i++ {
		for i < len(src) && class[src[i]]&(quote|space) == 0 {
			i++
		}
		if i == len(src) {
			break
		}
		if src[i] != '"' {
			dst = append(dst, src[start:i]...)
			for i+1 < len(src) && class[src[i+1]]&space != 0 {
				i++
			}
			start = i + 1
			continue
		}
		for i++; ; i++ {
			for class[src[i]]&(quote|escape|special) == 0 {
				i++
			}
			c := src[i]
			if c == '"' {
				break
			}
			switch c {
			case '\\':
				i++ // the escaped byte is ASCII and never special
			case '<', '>', '&':
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
				start = i + 1
			default: // 0xE2, which starts U+2028 and U+2029
				if src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
					dst = append(dst, src[start:i]...)
					dst = append(dst, '\\', 'u', '2', '0', '2', hex[src[i+2]&0xF])
					i += 2
					start = i + 1
				}
			}
		}
	}
	return append(dst, src[start:]...)
}

// Indent returns the compact, valid JSON src indented the way
// json.Indent(dst, src, "", "  ") writes it, followed by a newline — the
// form json.MarshalIndent(v, "", "  ") plus "\n" and a json.Encoder with
// SetIndent("", "  ") produce — in a slice of exactly that length.
func Indent(src []byte) []byte {
	out := make([]byte, indentLen(src)+1)
	w, depth := 0, 0
	open := false // just after { or [: the next byte decides between {} and a new line
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			w = newline(out, w, depth)
		}
		switch c {
		case '"':
			j := stringEnd(src, i)
			w += copy(out[w:], src[i:j])
			i = j
			continue
		case '{', '[':
			open = true
			out[w] = c
			w++
		case ',':
			out[w] = c
			w = newline(out, w+1, depth)
		case ':':
			out[w], out[w+1] = ':', ' '
			w += 2
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				w = newline(out, w, depth)
			}
			out[w] = c
			w++
		default:
			// A number or a literal runs to the next comma or closing bracket.
			j := i + 1
			for j < len(src) && class[src[j]]&punct == 0 {
				j++
			}
			w += copy(out[w:], src[i:j])
			i = j
			continue
		}
		i++
	}
	out[w] = '\n'
	return out
}

// indentLen is the length of Indent's output without its newline: it walks
// src with Indent's state and counts what each new line and colon adds.
func indentLen(src []byte) int {
	n, depth := len(src), 0
	open := false
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			n += 1 + 2*depth
		}
		switch c {
		case '"':
			i = stringEnd(src, i)
			continue
		case '{', '[':
			open = true
		case ',':
			n += 1 + 2*depth
		case ':':
			n++
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				n += 1 + 2*depth
			}
		}
		i++
	}
	return n
}

// stringEnd returns the index just past the JSON string that opens at
// src[i].
func stringEnd(src []byte, i int) int {
	for i++; ; i++ {
		for class[src[i]]&(quote|escape) == 0 {
			i++
		}
		if src[i] == '"' {
			return i + 1
		}
		i++ // skip the escaped byte
	}
}

// spaces holds the indentation of the first levels; deeper ones are built.
const spaces = "                                                                "

// newline writes a newline and depth levels of two-space indentation at
// out[w:] and returns the index past them.
func newline(out []byte, w, depth int) int {
	out[w] = '\n'
	w++
	for ; 2*depth > len(spaces); depth -= len(spaces) / 2 {
		w += copy(out[w:], spaces)
	}
	return w + copy(out[w:], spaces[:2*depth])
}

// maxDepth is encoding/json's nesting limit: a document may hold arrays and
// objects 10 000 deep, not one more.
const maxDepth = 10000

// SkipValue returns the index just past the JSON value that starts at src[i]
// (its first byte, not whitespace) and whether that value is valid JSON as
// json.Valid judges it: strings hold any bytes but unescaped control
// characters (invalid UTF-8 passes), numbers and escapes follow JSON's
// grammar, and arrays and objects nest no deeper than encoding/json's limit,
// counting the depth arrays and objects that already enclose src[i]. end is
// 0 when the value is invalid. The scan is one loop over the bytes with an
// explicit stack of the open containers, not a recursion.
func SkipValue(src []byte, i, depth int) (end int, ok bool) {
	var buf [64]bool // the first levels' kinds, true for an object
	open := buf[:0]
	for {
		// src[i] starts a value.
		if i >= len(src) {
			return 0, false
		}
		switch c := src[i]; c {
		case '{', '[':
			if depth+len(open) >= maxDepth {
				return 0, false
			}
			i = SkipSpace(src, i+1)
			if i < len(src) && src[i] == c+2 { // } or ]: empty
				i++
				break
			}
			open = append(open, c == '{')
			if c == '{' {
				if i = skipKey(src, i); i < 0 {
					return 0, false
				}
			}
			continue
		case '"':
			if i = skipString(src, i); i < 0 {
				return 0, false
			}
		case 't':
			if i = skipLiteral(src, i, "true"); i < 0 {
				return 0, false
			}
		case 'f':
			if i = skipLiteral(src, i, "false"); i < 0 {
				return 0, false
			}
		case 'n':
			if i = skipLiteral(src, i, "null"); i < 0 {
				return 0, false
			}
		default:
			if i = skipNumber(src, i); i < 0 {
				return 0, false
			}
		}
		// A value ended: close what it ends, then start the next one.
		for {
			if len(open) == 0 {
				return i, true
			}
			i = SkipSpace(src, i)
			if i >= len(src) {
				return 0, false
			}
			obj := open[len(open)-1]
			if c := src[i]; c == ',' {
				i = SkipSpace(src, i+1)
				if obj {
					if i = skipKey(src, i); i < 0 {
						return 0, false
					}
				}
				break
			} else if obj && c == '}' || !obj && c == ']' {
				open = open[:len(open)-1]
				i++
				continue
			}
			return 0, false
		}
	}
}

// SkipSpace returns the index of the first byte at or after src[i] that is
// not JSON whitespace: where a value, or the comma, colon or bracket after
// one, starts.
func SkipSpace(src []byte, i int) int {
	for i < len(src) && class[src[i]]&space != 0 {
		i++
	}
	return i
}

// skipKey returns the index of the value after the object key and colon
// that start at src[i], or -1 if they are not valid.
func skipKey(src []byte, i int) int {
	if i >= len(src) || src[i] != '"' {
		return -1
	}
	if i = skipString(src, i); i < 0 {
		return -1
	}
	if i = SkipSpace(src, i); i >= len(src) || src[i] != ':' {
		return -1
	}
	return SkipSpace(src, i+1)
}

// skipString returns the index just past the valid JSON string that opens
// at src[i], or -1 if there is none.
func skipString(src []byte, i int) int {
	for i++; ; i++ {
		for i < len(src) && class[src[i]]&(quote|escape|control) == 0 {
			i++
		}
		if i >= len(src) || src[i] < 0x20 {
			return -1
		}
		if src[i] == '"' {
			return i + 1
		}
		if i++; i >= len(src) {
			return -1
		}
		switch src[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if i+4 >= len(src) {
				return -1
			}
			for _, h := range src[i+1 : i+5] {
				if class[h]&hexDigit == 0 {
					return -1
				}
			}
			i += 4
		default:
			return -1
		}
	}
}

// skipLiteral returns the index just past lit at src[i], or -1 if src does
// not hold lit there.
func skipLiteral(src []byte, i int, lit string) int {
	if len(src)-i < len(lit) || string(src[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipNumber returns the index just past the JSON number at src[i], or -1
// if there is none: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func skipNumber(src []byte, i int) int {
	if i < len(src) && src[i] == '-' {
		i++
	}
	switch {
	case i >= len(src) || class[src[i]]&digit == 0:
		return -1
	case src[i] == '0':
		i++
	default:
		i = skipDigits(src, i)
	}
	if i < len(src) && src[i] == '.' {
		if i++; i >= len(src) || class[src[i]]&digit == 0 {
			return -1
		}
		i = skipDigits(src, i)
	}
	if i < len(src) && src[i]|0x20 == 'e' {
		if i++; i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i >= len(src) || class[src[i]]&digit == 0 {
			return -1
		}
		i = skipDigits(src, i)
	}
	return i
}

// skipDigits returns the index of the first byte at or after src[i] that is
// not a decimal digit.
func skipDigits(src []byte, i int) int {
	for i < len(src) && class[src[i]]&digit != 0 {
		i++
	}
	return i
}

// Byte classes the loops above test with one table lookup.
const (
	quote    = 1 << iota // "
	escape               // \
	special              // <, >, & and 0xE2 (U+2028, U+2029): escaped inside strings
	space                // whitespace, outside strings
	punct                // ends a number or literal: , } ]
	control              // 0x00–0x1F: invalid unescaped inside strings
	digit                // 0–9
	hexDigit             // 0–9, a–f, A–F
)

var class = func() (t [256]uint8) {
	t['"'], t['\\'] = quote, escape
	t['<'], t['>'], t['&'], t[0xE2] = special, special, special, special
	t[','], t['}'], t[']'] = punct, punct, punct
	for c := 0; c < 0x20; c++ {
		t[c] = control
	}
	t[' '] = space
	t['\t'], t['\n'], t['\r'] = space|control, space|control, space|control
	for c := '0'; c <= '9'; c++ {
		t[c] = digit | hexDigit
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c], t[c-'a'+'A'] = hexDigit, hexDigit
	}
	return t
}()
