package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

const (
	// encodeBufSize is the capacity of a pooled response buffer and so
	// the largest single write of a /query body. room and bytes fill it
	// to encodeBufLimit; the rest takes the punctuation between them.
	encodeBufSize  = 64 << 10
	encodeBufLimit = encodeBufSize - 64
	// maxMatchJSON bounds one encoded match and its separator:
	// ,{"index":-9223372036854775808,"value":-1.7976931348623157e+308}
	maxMatchJSON = 72
	// maxTailJSON bounds the fixed fields after the match list: some 250
	// bytes of keys and seventeen numbers of at most 24 bytes.
	maxTailJSON = 1024
)

var encodeBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, encodeBufSize)
	return &b
}}

// resultEncoder appends a ResultWire's JSON to buf. With a writer, buf
// is flushed whenever it fills, so a response of any length passes
// through one fixed-size buffer; without one the body accumulates.
type resultEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

// WriteResult writes r as the 200 response to a /query request — one
// JSON object and a newline — through a pooled 64 KiB buffer. Unless
// indexOnly is set, the bytes are exactly what encoding/json's Encoder
// writes for r. indexOnly is the request's index_only: its matches
// carry no values, so each is written as {"index":n} and a client
// decoding into MatchWire reads the same zero. r.Trace is copied as it
// is, without the validation and compaction encoding/json would apply
// (obs.EncodeTraceWire output needs neither). A NaN or infinite number
// is an error, as it is for encoding/json. extra, when
// not empty, is a JSON object whose members follow r's own — the
// router's degraded/shards annotations.
func WriteResult(w http.ResponseWriter, r *ResultWire, indexOnly bool, extra []byte) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := encodeBufPool.Get().(*[]byte)
	e := resultEncoder{w: w, buf: (*bp)[:0]}
	e.result(r, indexOnly, extra)
	e.flush()
	encodeBufPool.Put(bp)
	return e.err
}

// flush writes the buffered bytes out; a no-op without a writer.
func (e *resultEncoder) flush() {
	if e.w == nil {
		return
	}
	if e.err == nil && len(e.buf) > 0 {
		if _, err := e.w.Write(e.buf); err != nil {
			e.err = fmt.Errorf("server: writing response: %w", err)
		}
	}
	e.buf = e.buf[:0]
}

// room flushes unless n more bytes fit the buffer.
func (e *resultEncoder) room(n int) {
	if len(e.buf)+n > encodeBufLimit {
		e.flush()
	}
}

// bytes appends b, which may be longer than the buffer, flushing as
// the buffer fills.
func (e *resultEncoder) bytes(b []byte) {
	for e.w != nil && len(e.buf)+len(b) > encodeBufLimit {
		n := max(0, encodeBufLimit-len(e.buf))
		e.buf = append(e.buf, b[:n]...)
		b = b[n:]
		e.flush()
	}
	e.buf = append(e.buf, b...)
}

func (e *resultEncoder) str(s string) { e.buf = append(e.buf, s...) }

func (e *resultEncoder) int(key string, v int64) {
	e.str(key)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// float appends f the way encoding/json formats a float64: shortest
// round-trip digits, exponent form only outside [1e-6, 1e21), and a
// one-digit exponent without its leading zero.
func (e *resultEncoder) float(key string, f float64) {
	e.str(key)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("server: encoding response: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //mlocvet:ignore floatcmp -- exact zero takes the 'f' format, as in encoding/json
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = b
}

func (e *resultEncoder) bool(key string, v bool) {
	e.str(key)
	e.buf = strconv.AppendBool(e.buf, v)
}

// jsonString appends s quoted. Strings that need no escaping — every
// variable name in practice — are copied; the rest go through
// encoding/json so the escapes match it.
func (e *resultEncoder) jsonString(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = fmt.Errorf("server: encoding response: %w", err)
			}
			e.bytes(q)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.bytes([]byte(s))
	e.buf = append(e.buf, '"')
}

func (e *resultEncoder) matches(ms []MatchWire, indexOnly bool) {
	if ms == nil {
		e.str("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range ms {
		if e.room(maxMatchJSON); e.err != nil {
			return
		}
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.int(`{"index":`, ms[i].Index)
		if !indexOnly {
			e.float(`,"value":`, ms[i].Value)
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}

// result appends r field by field in ResultWire's declaration order.
func (e *resultEncoder) result(r *ResultWire, indexOnly bool, extra []byte) {
	e.str(`{"var":`)
	e.jsonString(r.Var)
	e.str(`,"matches":`)
	e.matches(r.Matches, indexOnly)
	e.room(maxTailJSON)
	e.int(`,"matches_total":`, int64(r.MatchesTotal))
	e.bool(`,"truncated":`, r.Truncated)
	e.int(`,"bins_accessed":`, int64(r.BinsAccessed))
	e.int(`,"blocks_read":`, int64(r.BlocksRead))
	e.int(`,"bytes_read":`, r.BytesRead)
	e.int(`,"cache_hits":`, int64(r.CacheHits))
	if r.BinsPruned != 0 {
		e.int(`,"bins_pruned":`, int64(r.BinsPruned))
	}
	if r.BinsCovered != 0 {
		e.int(`,"bins_covered":`, int64(r.BinsCovered))
	}
	if r.IndexNodesRead != 0 {
		e.int(`,"index_nodes_read":`, int64(r.IndexNodesRead))
	}
	e.float(`,"time":{"io":`, r.Time.IO)
	e.float(`,"decompress":`, r.Time.Decompress)
	e.float(`,"reconstruct":`, r.Time.Reconstruct)
	e.float(`,"total":`, r.Time.Total)
	e.float(`},"queued_ms":`, r.QueuedMS)
	if r.TraceID != 0 {
		e.str(`,"trace_id":`)
		e.buf = strconv.AppendUint(e.buf, r.TraceID, 10)
	}
	if len(r.Trace) > 0 {
		e.str(`,"trace":`)
		e.bytes(r.Trace)
	}
	if len(extra) > 2 {
		e.buf = append(e.buf, ',')
		e.bytes(extra[1 : len(extra)-1])
	}
	e.str("}\n")
}
