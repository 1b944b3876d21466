// Package jsonbytes writes JSON strings and numbers and reformats JSON
// documents with plain byte loops, producing byte for byte what encoding/json
// produces, without its reflection or its scanner. The metrics snapshot
// (internal/obs) and the result store's wire encoding (internal/store) are
// written with it; FuzzCompactIndent here and the differential tests in obs
// and store hold it to encoding/json.
//
// Nothing here validates: AppendCompact and Indent take JSON that is already
// valid (Indent: compact too), which is what their callers hold by
// construction — a registry they wrote, or a value decoded by encoding/json.
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

// Byte classes the loops above test with one table lookup.
const (
	quote   = 1 << iota // "
	escape              // \
	special             // <, >, & and 0xE2 (U+2028, U+2029): escaped inside strings
	space               // whitespace, outside strings
	punct               // ends a number or literal: , } ]
)

var class = [256]uint8{
	'"': quote, '\\': escape,
	'<': special, '>': special, '&': special, 0xE2: special,
	' ': space, '\t': space, '\n': space, '\r': space,
	',': punct, '}': punct, ']': punct,
}
