package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// decodeRequestRef is the decoder decodeRequest replaced, kept as its
// oracle: a json.Decoder over the body, then a second Decode that must find
// nothing but white space.
func decodeRequestRef(body io.Reader, req *Request) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		return err
	}
	switch err := dec.Decode(&struct{}{}); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected JSON value after the request object")
	default:
		return err
	}
}

// requestIdentityRef is requestIdentity as it streamed the fields into a
// sha256 hash.Hash, kept as the oracle that every identity, and so every
// alias, is unchanged.
func requestIdentityRef(r *Request) identity {
	h := sha256.New()
	num := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	flag := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	str := func(s string) { num(int64(len(s))); io.WriteString(h, s) }
	str("uu/serve request identity v1")
	str(r.App)
	str(r.Source)
	str(r.IR)
	str(r.Config)
	num(int64(r.Loop))
	num(int64(r.Factor))
	flag(r.Heuristic != nil)
	if hs := r.Heuristic; hs != nil {
		num(int64(hs.C))
		num(int64(hs.UMax))
		flag(hs.SkipDivergent)
		flag(hs.Selective)
		str(hs.Overrides)
	}
	str(r.Device)
	num(int64(r.Grid))
	num(int64(r.Block))
	num(r.MemBytes)
	num(int64(len(r.Args)))
	for _, a := range r.Args {
		num(a)
	}
	flag(r.Contain)
	str(r.Chaos)
	str(r.Remarks)
	flag(r.Profile)
	var id identity
	h.Sum(id[:0])
	return id
}

// fuzzMaxBody is the body limit the fuzz target decodes under, small so a
// seed can sit one byte past it; TestStructuredErrors serves the same limit.
const fuzzMaxBody = 4096

// FuzzDecodeRequest holds decodeRequest to its oracle on arbitrary bodies
// read through http.MaxBytesReader, as the handler reads them: the same
// accept/reject verdict, and for an accepted body the same Request and the
// same identity under both hashes. Which rejection a body gets may differ:
// the oracle could see trailing garbage before the limit, where
// decodeRequest reads the whole body first, so an oversized body with
// garbage early is 413 now where it was 400.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range hitForms(f) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		"",
		"{not json",
		`{"app":"xsbench"} trailing garbage`,
		`{"app":"xsbench"}{"app":"complex"}`,
		"{}",
		"null",
		`{"app":"xsbench"}` + " \n\t",
		`{"source":"kernel k( {"}`,
		`{"source":"kernel k(long n) { long x = n; }","args":[]}`,
		`{"app":"xsbench","heuristic":{"c":3,"overrides":"L10:deny"},"args":[1,-2]}`,
		`{"app":"xsbench","loop":1.5}`,
		`{"APP":"xsbench","Config":"uu"}`,
		`{"app":"nope"}` + strings.Repeat(" ", fuzzMaxBody),
		`{"source":"` + strings.Repeat("x", fuzzMaxBody-len(`{"source":""}`)+1) + `"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		read := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), fuzzMaxBody)
		}
		var got, want Request
		err := decodeRequest(read(), &got)
		wantErr := decodeRequestRef(read(), &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeRequest says %v, the oracle %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, the oracle %+v", body, got, want)
		}
		if requestIdentity(&got) != requestIdentityRef(&want) {
			t.Fatalf("body %q: identity differs from the streamed hash", body)
		}
	})
}
