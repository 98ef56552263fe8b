package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the response encoding: one append* encoder per query
// response type writes the compact encoding/json bytes of a value
// straight into a pooled buffer, so a query costs its lookups, one
// encode and one write, with no per-request allocation. Each encoder is
// held to json.Marshal byte for byte (TestEncodersMatchEncodingJSON);
// ?pretty=1 indents the same bytes with json.Indent.

// maxRetainedBuf caps the capacity of buffers returned to the pool;
// anything larger (a one-off huge batch) is left for the GC instead of
// pinning memory forever.
const maxRetainedBuf = 64 << 10

// respBuf is a pooled response buffer the encoders append into.
type respBuf struct{ b []byte }

var respBufPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 1024)} }}

// getRespBuf returns an empty pooled buffer.
func getRespBuf() *respBuf {
	rb := respBufPool.Get().(*respBuf)
	rb.b = rb.b[:0]
	return rb
}

func putRespBuf(rb *respBuf) {
	if cap(rb.b) <= maxRetainedBuf {
		respBufPool.Put(rb)
	}
}

// contentTypeJSON is the Content-Type value of every response, as a
// preallocated header slice shared across requests so a response does
// not allocate one. Nothing may mutate it.
var contentTypeJSON = []string{"application/json; charset=utf-8"}

// writeBody writes a compact encoded body (trailing newline included),
// indented first when the request opted into ?pretty=1: indenting the
// compact bytes yields exactly what an indenting json.Encoder writes.
// The Content-Type slice is shared and the header write is a plain map
// assignment; Content-Length is left to net/http (it infers the exact
// length for buffered bodies), because Header().Set plus strconv.Itoa
// would cost two allocations per response on an otherwise zero-alloc
// path.
//
//rws:envelope
func writeBody(w http.ResponseWriter, r *http.Request, status int, pretty bool, body []byte) {
	if pretty {
		var buf bytes.Buffer
		if err := json.Indent(&buf, body, "", "  "); err != nil {
			writeError(w, r, http.StatusInternalServerError, codeInternal, "encoding response: %v", err)
			return
		}
		body = buf.Bytes()
	}
	w.Header()["Content-Type"] = contentTypeJSON
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(body)
}

// hexDigits feeds the \u00xx escapes, matching encoding/json's lowercase.
const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json's HTML-escaping encoder
// (the Marshal default) passes through verbatim inside a string.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// appendJSONString appends the encoding/json encoding of s — including
// the HTML escapes (<, >, & → <…) and the invalid-UTF-8 and
// U+2028/U+2029 replacements. Held to Marshal by
// TestAppendJSONStringMatchesMarshal.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes a finite float64:
// shortest round-trip digits, exponent form outside [1e-6, 1e21), and a
// two-digit negative exponent trimmed to one (e-09 → e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendStringField appends a field's key prefix (`"name":` or
// `,"name":`) followed by the encoded string value.
func appendStringField(dst []byte, key, v string) []byte {
	dst = append(dst, key...)
	return appendJSONString(dst, v)
}

// appendSameSet appends the encoding of a SameSetResponse.
func appendSameSet(dst []byte, r SameSetResponse) []byte {
	dst = appendStringField(append(dst, '{'), `"a":`, r.A)
	dst = appendStringField(dst, `,"b":`, r.B)
	dst = strconv.AppendBool(append(dst, `,"same_set":`...), r.SameSet)
	if r.Primary != "" {
		dst = appendStringField(dst, `,"primary":`, r.Primary)
	}
	return append(dst, '}')
}

// appendSameSetBatch appends the encoding of the SameSetBatchResponse
// that answers pairs from snap, without materializing the results slice.
func appendSameSetBatch(dst []byte, snap *Snapshot, pairs [][2]string) []byte {
	dst = strconv.AppendInt(append(dst, `{"pairs":`...), int64(len(pairs)), 10)
	dst = append(dst, `,"results":[`...)
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSameSet(dst, snap.SameSet(p[0], p[1]))
	}
	return append(dst, ']', '}')
}

// appendSet appends the encoding of a SetResponse, walking its member
// slice (a row of the snapshot's member table).
func appendSet(dst []byte, r SetResponse) []byte {
	dst = appendStringField(append(dst, '{'), `"site":`, r.Site)
	dst = strconv.AppendBool(append(dst, `,"found":`...), r.Found)
	if r.Role != "" {
		dst = appendStringField(dst, `,"role":`, r.Role)
	}
	if r.Primary != "" {
		dst = appendStringField(dst, `,"primary":`, r.Primary)
	}
	if len(r.Members) > 0 {
		dst = append(dst, `,"members":[`...)
		for i, m := range r.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStringField(append(dst, '{'), `"site":`, m.Site)
			dst = appendStringField(dst, `,"role":`, m.Role)
			if m.AliasOf != "" {
				dst = appendStringField(dst, `,"alias_of":`, m.AliasOf)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPartition appends the encoding of a PartitionResponse.
func appendPartition(dst []byte, r PartitionResponse) []byte {
	dst = appendStringField(append(dst, '{'), `"policy":`, r.Policy)
	dst = appendStringField(dst, `,"top":`, r.Top)
	dst = appendStringField(dst, `,"embedded":`, r.Embedded)
	dst = strconv.AppendBool(append(dst, `,"same_set":`...), r.SameSet)
	dst = strconv.AppendBool(append(dst, `,"partitioned_by_default":`...), r.PartitionedByDefault)
	dst = appendStringField(dst, `,"decision":`, r.Decision)
	dst = strconv.AppendBool(append(dst, `,"granted":`...), r.Granted)
	return append(dst, '}')
}

// appendStats appends the encoding of a StatsResponse.
func appendStats(dst []byte, r StatsResponse) []byte {
	dst = strconv.AppendInt(append(dst, `{"sets":`...), int64(r.Sets), 10)
	dst = strconv.AppendInt(append(dst, `,"sites":`...), int64(r.Sites), 10)
	dst = strconv.AppendInt(append(dst, `,"associated_sites":`...), int64(r.AssociatedSites), 10)
	dst = strconv.AppendInt(append(dst, `,"service_sites":`...), int64(r.ServiceSites), 10)
	dst = strconv.AppendInt(append(dst, `,"cctld_sites":`...), int64(r.CCTLDSites), 10)
	dst = appendJSONFloat(append(dst, `,"mean_associated_per_set":`...), r.MeanAssociated)
	dst = appendStringField(dst, `,"snapshot_hash":`, r.SnapshotHash)
	dst = strconv.AppendUint(append(dst, `,"requests_served":`...), r.Requests, 10)
	dst = strconv.AppendUint(append(dst, `,"list_swaps":`...), r.ListSwaps, 10)
	return append(dst, '}')
}
