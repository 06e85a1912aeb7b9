package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"pace/internal/query"
)

// codecs under test; every property must hold for both.
var testCodecs = []Codec{JSON, Binary}

func randomWireQueries(m *query.Meta, n int, rng *rand.Rand) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = EncodeQuery(randomQuery(m, rng))
	}
	return out
}

func randomB64s(n int, rng *rand.Rand) []B64 {
	out := make([]B64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = FromFloat(nastyFloats[rng.Intn(len(nastyFloats))])
		} else {
			out[i] = B64(rng.Uint64())
		}
	}
	return out
}

// TestCrossCodecEquivalence is the protocol-v2 contract: the same
// message round-tripped through the JSON codec and through the binary
// codec decodes to the same semantic value — query.Key, estimate and
// card bit patterns all identical — across schema shapes, batch sizes
// and adversarial float values.
func TestCrossCodecEquivalence(t *testing.T) {
	shapes := [][2]int{{1, 1}, {2, 3}, {5, 2}, {9, 4}, {16, 1}}
	sizes := []int{0, 1, 7, 64}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range shapes {
		m := testMeta(sh[0], sh[1])
		for _, n := range sizes {
			qs := randomWireQueries(m, n, rng)
			cards := randomB64s(n, rng)

			ereq := &EstimateRequest{V: Version, Queries: qs}
			xreq := &ExecuteRequest{V: Version, Queries: qs, Cards: cards}
			eresp := &EstimateResponse{V: Version, Estimates: randomB64s(n, rng)}
			xresp := &ExecuteResponse{V: Version, Executed: n}

			var keys [][]string // one key list per codec
			for _, c := range testCodecs {
				blob, err := c.EncodeEstimateRequest(ereq)
				if err != nil {
					t.Fatalf("%s shape %v n=%d: encode estimate: %v", c.Name(), sh, n, err)
				}
				back, err := c.DecodeEstimateRequest(blob)
				if err != nil {
					t.Fatalf("%s shape %v n=%d: decode estimate: %v", c.Name(), sh, n, err)
				}
				if back.V != Version {
					t.Fatalf("%s: decoded V=%d, want normalized %d", c.Name(), back.V, Version)
				}
				ks := make([]string, len(back.Queries))
				for i := range back.Queries {
					dq, err := back.Queries[i].Decode(m)
					if err != nil {
						t.Fatalf("%s shape %v query %d: semantic decode: %v", c.Name(), sh, i, err)
					}
					ks[i] = dq.Key()
				}
				keys = append(keys, ks)

				xblob, err := c.EncodeExecuteRequest(xreq)
				if err != nil {
					t.Fatalf("%s: encode execute: %v", c.Name(), err)
				}
				xback, err := c.DecodeExecuteRequest(xblob)
				if err != nil {
					t.Fatalf("%s: decode execute: %v", c.Name(), err)
				}
				if len(xback.Cards) != n {
					t.Fatalf("%s: %d cards back, want %d", c.Name(), len(xback.Cards), n)
				}
				for i := range xback.Cards {
					if xback.Cards[i] != cards[i] {
						t.Fatalf("%s card %d: %#x → %#x", c.Name(), i, uint64(cards[i]), uint64(xback.Cards[i]))
					}
				}

				rblob, err := c.EncodeEstimateResponse(eresp)
				if err != nil {
					t.Fatalf("%s: encode estimates: %v", c.Name(), err)
				}
				rback, err := c.DecodeEstimateResponse(rblob)
				if err != nil {
					t.Fatalf("%s: decode estimates: %v", c.Name(), err)
				}
				for i := range rback.Estimates {
					if rback.Estimates[i] != eresp.Estimates[i] {
						t.Fatalf("%s estimate %d changed bits", c.Name(), i)
					}
				}

				xrblob, err := c.EncodeExecuteResponse(xresp)
				if err != nil {
					t.Fatalf("%s: encode executed: %v", c.Name(), err)
				}
				xrback, err := c.DecodeExecuteResponse(xrblob)
				if err != nil {
					t.Fatalf("%s: decode executed: %v", c.Name(), err)
				}
				if xrback.Executed != n {
					t.Fatalf("%s: executed %d, want %d", c.Name(), xrback.Executed, n)
				}
			}
			for i := range keys[0] {
				if keys[0][i] != keys[1][i] {
					t.Fatalf("shape %v query %d: json and binary decode to different keys", sh, i)
				}
			}
		}
	}
}

// validEstimateFrame builds one well-formed binary estimate request for
// the rejection and fuzz corpora.
func validEstimateFrame(t testing.TB) []byte {
	t.Helper()
	m := testMeta(2, 2)
	rng := rand.New(rand.NewSource(3))
	blob, err := Binary.EncodeEstimateRequest(&EstimateRequest{
		V: Version, Queries: randomWireQueries(m, 3, rng),
	})
	if err != nil {
		t.Fatalf("building seed frame: %v", err)
	}
	return blob
}

// TestBinaryFrameRejection drives every malformation class through the
// parser: each must come back as ErrBadFrame (or ErrVersionMismatch for
// the version byte), as machine-readable codes — never a panic, never a
// silent partial decode.
func TestBinaryFrameRejection(t *testing.T) {
	valid := validEstimateFrame(t)
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := map[string]struct {
		raw  []byte
		want error
	}{
		"empty":        {nil, ErrBadFrame},
		"short header": {valid[:frameHeaderLen-1], ErrBadFrame},
		"bad magic": {corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
			ErrBadFrame},
		"future version": {corrupt(func(b []byte) []byte { b[2] = BinaryVersion + 1; return b }),
			ErrVersionMismatch},
		"wrong message type": {corrupt(func(b []byte) []byte { b[3] = msgExecuteRequest; return b }),
			ErrBadFrame},
		"truncated payload": {valid[:len(valid)-1], ErrBadFrame},
		"trailing garbage":  {append(append([]byte(nil), valid...), 0xEE), ErrBadFrame},
		"length larger than body": {corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b))) // claims more than carried
			return b
		}), ErrBadFrame},
		"length smaller than body": {corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 0)
			return b
		}), ErrBadFrame},
		"huge query count": {mustFrame(t, msgEstimateRequest,
			binary.AppendUvarint(nil, uint64(MaxBatch)+1)), ErrBadFrame},
		"query count beyond payload": {mustFrame(t, msgEstimateRequest,
			binary.AppendUvarint(nil, 100)), ErrBadFrame},
		"unterminated uvarint": {mustFrame(t, msgEstimateRequest,
			bytes.Repeat([]byte{0x80}, 12)), ErrBadFrame},
		"huge table count": {mustFrame(t, msgEstimateRequest,
			appendUvarints(nil, 1, maxTablesPerQuery+1)), ErrBadFrame},
		"huge bound count": {mustFrame(t, msgEstimateRequest,
			appendUvarints(nil, 1, 0, maxBoundsPerQuery+1)), ErrBadFrame},
		"bound lane truncated": {mustFrame(t, msgEstimateRequest,
			append(appendUvarints(nil, 1, 0, 1), 1, 2, 3)), ErrBadFrame},
	}
	for name, tc := range cases {
		if _, err := Binary.DecodeEstimateRequest(tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
	}

	// The execute decoder shares the parser; its card lane has its own
	// truncation class (queries fit, cards missing).
	qs := randomWireQueries(testMeta(1, 1), 2, rand.New(rand.NewSource(5)))
	xblob, err := Binary.EncodeExecuteRequest(&ExecuteRequest{V: Version, Queries: qs, Cards: randomB64s(2, rand.New(rand.NewSource(6)))})
	if err != nil {
		t.Fatalf("seed execute frame: %v", err)
	}
	short := append([]byte(nil), xblob[:len(xblob)-8]...) // drop the last card
	binary.LittleEndian.PutUint32(short[4:8], uint32(len(short)-frameHeaderLen))
	if _, err := Binary.DecodeExecuteRequest(short); !errors.Is(err, ErrBadFrame) {
		t.Errorf("card lane truncation: error %v, want ErrBadFrame", err)
	}
}

func mustFrame(t testing.TB, msgType byte, payload []byte) []byte {
	t.Helper()
	blob, err := frame(msgType, payload)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	return blob
}

func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// TestJSONCodecRejectsWrongVersion pins the JSON side of the version
// gate alongside the binary frame-version byte.
func TestJSONCodecRejectsWrongVersion(t *testing.T) {
	blob := []byte(`{"v":99,"queries":[]}`)
	if _, err := JSON.DecodeEstimateRequest(blob); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("v99 decode error %v, want ErrVersionMismatch", err)
	}
	if _, err := JSON.DecodeEstimateRequest([]byte(`{"v":1,`)); err == nil {
		t.Error("truncated JSON decoded without error")
	}
}

// TestNegotiationHelpers pins the header-level negotiation surface the
// server builds on.
func TestNegotiationHelpers(t *testing.T) {
	if c, ok := CodecForContentType(""); !ok || c.Name() != "json" {
		t.Errorf("absent Content-Type → (%v,%v), want json (v1 behaviour)", c, ok)
	}
	if c, ok := CodecForContentType("application/json; charset=utf-8"); !ok || c.Name() != "json" {
		t.Errorf("json+charset → (%v,%v)", c, ok)
	}
	if c, ok := CodecForContentType("Application/X-Pace-Binary"); !ok || c.Name() != "binary" {
		t.Errorf("case-insensitive binary → (%v,%v)", c, ok)
	}
	if _, ok := CodecForContentType("text/plain"); ok {
		t.Error("text/plain resolved to a codec; want 415 path")
	}
	if !AcceptsBinary("application/json, application/x-pace-binary;q=0.9") {
		t.Error("Accept listing binary with q-value not honored")
	}
	if AcceptsBinary("application/json, */*") {
		t.Error("wildcard Accept must not opt into binary")
	}
	if _, ok := CodecByName("BINARY"); !ok {
		t.Error("CodecByName is case-sensitive; flags should not be")
	}
	if _, ok := CodecByName("protobuf"); ok {
		t.Error("unknown codec name resolved")
	}
}

// FuzzBinaryFrame hammers all four binary decoders with arbitrary
// bytes: any outcome but (nil error with a canonical re-encode) or a
// typed ErrBadFrame / ErrVersionMismatch is a bug, and panics fail the
// fuzz run outright.
func FuzzBinaryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PW"))
	f.Add(validEstimateFrame(f))
	m := testMeta(3, 2)
	rng := rand.New(rand.NewSource(8))
	xblob, err := Binary.EncodeExecuteRequest(&ExecuteRequest{
		V: Version, Queries: randomWireQueries(m, 2, rng), Cards: randomB64s(2, rng),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xblob)
	rblob, _ := Binary.EncodeEstimateResponse(&EstimateResponse{V: Version, Estimates: randomB64s(5, rng)})
	f.Add(rblob)
	xrblob, _ := Binary.EncodeExecuteResponse(&ExecuteResponse{V: Version, Executed: 7})
	f.Add(xrblob)
	f.Add(mustFrame(f, msgEstimateRequest, bytes.Repeat([]byte{0x80}, 9)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(err error, reencoded []byte, reerr error) {
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersionMismatch) {
					t.Fatalf("untyped decode error: %v", err)
				}
				return
			}
			// A frame the decoder accepted must re-encode cleanly and
			// byte-identically: accepted input is canonical.
			if reerr != nil {
				t.Fatalf("accepted frame re-encode failed: %v", reerr)
			}
			if !bytes.Equal(raw, reencoded) {
				t.Fatalf("accepted frame not canonical:\n in  %x\n out %x", raw, reencoded)
			}
		}
		if req, err := Binary.DecodeEstimateRequest(raw); err == nil {
			re, reerr := Binary.EncodeEstimateRequest(req)
			check(nil, re, reerr)
		} else {
			check(err, nil, nil)
		}
		if req, err := Binary.DecodeExecuteRequest(raw); err == nil {
			re, reerr := Binary.EncodeExecuteRequest(req)
			check(nil, re, reerr)
		} else {
			check(err, nil, nil)
		}
		if resp, err := Binary.DecodeEstimateResponse(raw); err == nil {
			re, reerr := Binary.EncodeEstimateResponse(resp)
			check(nil, re, reerr)
		} else {
			check(err, nil, nil)
		}
		if resp, err := Binary.DecodeExecuteResponse(raw); err == nil {
			re, reerr := Binary.EncodeExecuteResponse(resp)
			check(nil, re, reerr)
		} else {
			check(err, nil, nil)
		}
	})
}

// workloadLikeQueries draws queries with the predicate shape the
// workload generator produces — a handful of constrained attributes,
// the rest left at the open [0,1] default.
func workloadLikeQueries(m *query.Meta, n, constrained int, rng *rand.Rand) []Query {
	nAttrs := m.AttrOffset[len(m.AttrOffset)-1]
	qs := make([]Query, n)
	for i := range qs {
		q := query.New(m)
		for t := range q.Tables {
			q.Tables[t] = rng.Intn(2) == 0
		}
		for k := 0; k < constrained; k++ {
			a := rng.Intn(nAttrs)
			lo, hi := rng.Float64(), rng.Float64()
			if lo > hi {
				lo, hi = hi, lo
			}
			q.Bounds[a] = [2]float64{lo, hi}
		}
		qs[i] = EncodeQuery(q)
	}
	return qs
}

// TestBinarySmallerThanJSON pins the bandwidth claim the binary codec
// exists for: a workload-shaped estimate batch (few constrained
// predicates, the rest open) must shrink at least 3× next to its JSON
// form — the estimate-path row of BENCH.json's legacy remote/codec_v2
// cells.
func TestBinarySmallerThanJSON(t *testing.T) {
	m := testMeta(6, 3)
	rng := rand.New(rand.NewSource(21))
	req := &EstimateRequest{V: Version, Queries: workloadLikeQueries(m, 64, 4, rng)}
	jb, err := JSON.EncodeEstimateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Binary.EncodeEstimateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(jb)) / float64(len(bb)); ratio < 3 {
		t.Errorf("binary estimate batch only %.2f× smaller than JSON (%d vs %d bytes); the codec's reason to exist is ≥3×",
			ratio, len(jb), len(bb))
	}
}

func benchQueries(n int) ([]Query, []B64) {
	m := testMeta(6, 3)
	rng := rand.New(rand.NewSource(17))
	return workloadLikeQueries(m, n, 4, rng), randomB64s(n, rng)
}

func benchmarkEncode(b *testing.B, c Codec) {
	qs, _ := benchQueries(64)
	req := &EstimateRequest{V: Version, Queries: qs}
	blob, err := c.EncodeEstimateRequest(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeEstimateRequest(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "wire-bytes")
}

func benchmarkDecode(b *testing.B, c Codec) {
	qs, _ := benchQueries(64)
	blob, err := c.EncodeEstimateRequest(&EstimateRequest{V: Version, Queries: qs})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeEstimateRequest(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeEstimateJSON(b *testing.B)   { benchmarkEncode(b, JSON) }
func BenchmarkEncodeEstimateBinary(b *testing.B) { benchmarkEncode(b, Binary) }
func BenchmarkDecodeEstimateJSON(b *testing.B)   { benchmarkDecode(b, JSON) }
func BenchmarkDecodeEstimateBinary(b *testing.B) { benchmarkDecode(b, Binary) }
