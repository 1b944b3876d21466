package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// encBufs are the encoder's scratch buffers. Only the exact-size wire form
// outlives an encoding, so a Put allocates one encoding's worth, not three.
type encBufs struct{ compact, indented bytes.Buffer }

var encPool = sync.Pool{New: func() any { return new(encBufs) }}

// marshalCompact is the one json.Marshal an entry gets: it writes the
// entry's compact JSON encoding with the Checksum field empty into b.compact
// and returns that encoding's hex SHA-256 — the entry's checksum. Struct
// field order fixes the JSON field order, so the encoding is canonical and
// the checksum is stable across marshal/unmarshal round trips. It fails only
// on a Metrics value that is not valid JSON.
func (b *encBufs) marshalCompact(e *Entry) (sum string, err error) {
	c := *e
	c.Checksum = ""
	b.compact.Reset()
	if err := json.NewEncoder(&b.compact).Encode(&c); err != nil {
		return "", err
	}
	b.compact.Truncate(b.compact.Len() - 1) // Encode is Marshal plus a newline
	h := sha256.Sum256(b.compact.Bytes())
	return hex.EncodeToString(h[:]), nil
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
	b := encPool.Get().(*encBufs)
	defer encPool.Put(b)
	if sum, err = b.marshalCompact(e); err != nil {
		return nil, "", err
	}
	if !legacy {
		// Checksum is the struct's last field and created_at, before it,
		// is never omitted: the field goes in front of the closing brace.
		b.compact.Truncate(b.compact.Len() - 1)
		b.compact.WriteString(`,"checksum":"` + sum + `"}`)
	}
	b.indented.Reset()
	if err := json.Indent(&b.indented, b.compact.Bytes(), "", "  "); err != nil {
		return nil, "", err
	}
	b.indented.WriteByte('\n')
	wire = make([]byte, b.indented.Len())
	copy(wire, b.indented.Bytes())
	return wire, sum, nil
}

// ChecksumOK verifies the entry against its stored checksum. Entries
// without one (written before checksums existed) pass unverified.
func (e *Entry) ChecksumOK() bool {
	if e.Checksum == "" {
		return true
	}
	b := encPool.Get().(*encBufs)
	defer encPool.Put(b)
	sum, err := b.marshalCompact(e)
	return err == nil && sum == e.Checksum
}
