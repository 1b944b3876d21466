package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/jsonbytes"
)

// checksumOpen starts the field encodeEntry puts in front of the closing
// brace: checksumOpen, the 64 hex digits of the checksum, a closing quote.
const checksumOpen = `,"checksum":"`

// marshalEntry returns the entry's compact JSON encoding with the Checksum
// field empty, and that encoding's hex SHA-256 — the entry's checksum. Struct
// field order fixes the JSON field order, so the encoding is canonical and
// the checksum is stable across marshal/unmarshal round trips.
//
// json.Marshal writes only the small fixed fields; Metrics, the bulk of a
// large entry, is spliced in by jsonbytes.AppendCompact, which writes what
// Marshal would write for it (compact or indented on input alike) without
// Marshal's validating scanner. Metrics must therefore be valid JSON: the
// registry's own snapshot, or a value decoded by encoding/json from a disk
// file or a peer. The returned slice has room for encodeEntry's checksum
// field. It fails only on a fixed field Marshal rejects.
func marshalEntry(e *Entry) (compact []byte, sum string, err error) {
	c := *e
	c.Checksum = ""
	c.Metrics = nil
	head, err := json.Marshal(&c)
	if err != nil {
		return nil, "", err
	}
	compact = head
	if len(e.Metrics) > 0 {
		// Metrics is the field before created_at, which is never omitted and
		// with Checksum empty is the last field Marshal writes.
		i := bytes.LastIndex(head, []byte(`,"created_at":`))
		compact = make([]byte, 0, len(head)+len(`,"metrics":`)+len(e.Metrics)+len(checksumOpen)+2*sha256.Size+1)
		compact = append(compact, head[:i]...)
		compact = append(compact, `,"metrics":`...)
		compact = jsonbytes.AppendCompact(compact, e.Metrics)
		compact = append(compact, head[i:]...)
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
		compact = append(compact[:len(compact)-1], checksumOpen...)
		compact = append(compact, sum...)
		compact = append(compact, `"}`...)
	}
	return jsonbytes.Indent(compact), sum, nil
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
