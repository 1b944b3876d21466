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

// encodeEntry marshals e once and returns its checksum and its wire form,
// the bytes the store keeps on disk and in memory and the API serves: the
// compact encoding with the checksum spliced in as the last field (unless
// legacy: entries written before checksums existed are served without one),
// indented by two spaces, newline-terminated — byte for byte what
// json.MarshalIndent of the checksummed entry plus "\n" yields, since
// MarshalIndent is Marshal followed by Indent. The wire slice is exact-size:
// it stays resident in the LRU.
func encodeEntry(e *Entry, legacy bool) (wire []byte, sum string, err error) {
	compact, sum, err := marshalEntry(e)
	if err != nil {
		return nil, "", err
	}
	if !legacy {
		// Checksum is the struct's last field and created_at, before it,
		// is never omitted: the field goes in front of the closing brace.
		compact = append(compact[:len(compact)-1], `,"checksum":"`+sum+`"}`...)
	}
	var buf bytes.Buffer
	buf.Grow(5 * len(compact) / 2) // a fig7 entry indents to 2.24× its compact form
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, "", err
	}
	buf.WriteByte('\n')
	wire = make([]byte, buf.Len())
	copy(wire, buf.Bytes())
	return wire, sum, nil
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
