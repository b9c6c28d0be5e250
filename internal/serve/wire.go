package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"

	"uu/internal/freelist"
)

// A request's wire work — reading its body, hashing its identity, writing
// its 200 — runs in a recycled byte buffer. Each user takes a buffer and
// files it back before returning, so nothing outlives the call but what was
// copied out of it. A buffer that grew past maxPooledBuf (a large source
// kernel, a traced response) is dropped instead of filed, so the list never
// pins a body near maxBodyBytes.
const maxPooledBuf = 64 << 10

// freeBufs holds filed buffers, empty. Its price: with its Put discarded
// the benchmark's serve-hot allocates 21 % more; serve-cold moves by less
// than its run-to-run spread (EXPERIMENTS.md "What each free list buys").
var freeBufs = freelist.New[[]byte]()

// takeBuf returns an empty buffer: a filed one, or nil for append to grow.
func takeBuf() []byte {
	b, _ := freeBufs.Take()
	return b
}

// fileBuf files b, emptied, for a later request, unless it grew past
// maxPooledBuf.
func fileBuf(b []byte) {
	if cap(b) <= maxPooledBuf {
		freeBufs.Put(b[:0])
	}
}

// jsonContentType is every JSON response's Content-Type value, assigned
// rather than Set so a response does not allocate it. Shared and never
// written through: Header.Set and Add replace or grow the slice instead.
var jsonContentType = []string{"application/json"}

// decodeRequest decodes the body's one JSON object into req. Anything but
// white space after it is an error — json.Unmarshal checks the whole input —
// so `{"app":"a"}{"app":"b"}` does not compile a. A reader error, such as
// http.MaxBytesReader's *http.MaxBytesError, is returned as is.
func decodeRequest(body io.Reader, req *Request) error {
	b := takeBuf()
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			fileBuf(b)
			return err
		}
	}
	err := json.Unmarshal(b, req)
	fileBuf(b)
	return err
}

// marshalResponse encodes a finished execution's Response; a variable so a
// test can make it fail.
var marshalResponse = json.Marshal

// encode fills r's wire form once, on the worker that produced r, before
// the flight shares it: head is `{"key":"<key>",` and body every field from
// "app" or "config" through "profile_folded". Those are the same for every
// request r answers; reqState.respond writes the request's own fields
// between and after them. r must carry no per-request field yet.
func (r *Response) encode() error {
	b, err := marshalResponse(r)
	if err != nil {
		return err
	}
	head := len(`{"key":"`) + len(r.Key) + len(`",`)
	pre := `{"key":"` + r.Key + `","cached":false,`
	if !bytes.HasPrefix(b, []byte(pre)) || b[len(b)-1] != '}' {
		return errors.New("response encoding does not start with its key")
	}
	r.head, r.body = b[:head:head], b[len(pre):len(b)-1]
	return nil
}

// appendPhases appends `,"phases":{...}` exactly as encoding/json renders p.
func appendPhases(b []byte, p Phases) []byte {
	b = append(b, `,"phases":{"frontend_ms":`...)
	b = appendJSONFloat(b, p.FrontendMs)
	b = append(b, `,"resolve_ms":`...)
	b = appendJSONFloat(b, p.ResolveMs)
	b = append(b, `,"admission_ms":`...)
	b = appendJSONFloat(b, p.AdmissionMs)
	b = append(b, `,"compile_ms":`...)
	b = appendJSONFloat(b, p.CompileMs)
	b = append(b, `,"simulate_ms":`...)
	b = appendJSONFloat(b, p.SimulateMs)
	if p.EncodeMs != 0 {
		b = append(b, `,"encode_ms":`...)
		b = appendJSONFloat(b, p.EncodeMs)
	}
	b = append(b, `,"total_ms":`...)
	b = appendJSONFloat(b, p.TotalMs)
	return append(b, '}')
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent not zero-padded. f must be finite; phase
// timings always are.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
