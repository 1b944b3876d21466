package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// marshalEntry is the one json.Marshal an entry gets: it returns the entry's
// compact JSON encoding with the Checksum field empty, and that encoding's
// hex SHA-256 — the entry's checksum. Struct field order fixes the JSON
// field order, so the encoding is canonical and the checksum is stable
// across marshal/unmarshal round trips. It fails only on a Metrics value
// that is not valid JSON.
func marshalEntry(e *Entry) (compact []byte, sum string, err error) {
	c := *e
	c.Checksum = ""
	if compact, err = json.Marshal(&c); err != nil {
		return nil, "", err
	}
	h := sha256.Sum256(compact)
	return compact, hex.EncodeToString(h[:]), nil
}

// wireForm turns marshalEntry's compact encoding into the entry's stored and
// served form: the checksum (when there is one; legacy entries have none)
// spliced in as the last field, indented by two spaces, newline-terminated —
// byte for byte what json.MarshalIndent of the checksummed entry plus "\n"
// yields, since MarshalIndent is Marshal followed by Indent. It consumes
// compact, and returns an exact-size slice: the result stays resident in the
// LRU.
func wireForm(compact []byte, sum string) []byte {
	var buf bytes.Buffer
	buf.Grow(len(compact) + len(compact)/4 + 128)
	if sum != "" {
		// Checksum is the struct's last field and created_at, before it,
		// is never omitted: the field goes in front of the closing brace.
		compact = append(compact[:len(compact)-1], `,"checksum":"`+sum+`"}`...)
	}
	// Indent fails only on invalid JSON, which Marshal never emits.
	_ = json.Indent(&buf, compact, "", "  ")
	buf.WriteByte('\n')
	wire := make([]byte, buf.Len())
	copy(wire, buf.Bytes())
	return wire
}

// ChecksumOK verifies the entry against its stored checksum. Entries
// without one (written before checksums existed) pass unverified.
func (e *Entry) ChecksumOK() bool {
	if e.Checksum == "" {
		return true
	}
	_, sum, err := marshalEntry(e)
	return err == nil && sum == e.Checksum
}
