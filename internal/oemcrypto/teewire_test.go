package oemcrypto

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mp4"
	"repro/internal/tee"
)

// seedRequests holds one request per command, shaped like the adapter's
// call for that entry point.
func seedRequests() map[Func]teeRequest {
	kid := [16]byte{0xA1, 0xB2}
	return map[Func]teeRequest{
		FuncInitialize:          {},
		FuncTerminate:           {},
		Func(funcProvisioned):   {},
		FuncKeyboxInfo:          {},
		FuncOpenSession:         {},
		FuncCloseSession:        {Session: 3},
		FuncLoadDeviceRSAKey:    {},
		FuncGenerateDerivedKeys: {Session: 1, Context: []byte("provisioning-request-context")},
		FuncRewrapDeviceRSAKey: {
			Session: 1, Message: []byte("msg"), MAC: bytes.Repeat([]byte{7}, 32),
			WrappedKey: bytes.Repeat([]byte{9}, 48), IV: bytes.Repeat([]byte{1}, 16),
		},
		FuncGenerateRSASignature:     {Session: 3, Message: []byte(`{"contentId":"movie"}`)},
		FuncDeriveKeysFromSessionKey: {Session: 3, Data: bytes.Repeat([]byte{5}, 256), Context: []byte("ctx")},
		FuncLoadKeys: {Session: 3, Message: []byte("body"), MAC: bytes.Repeat([]byte{2}, 32), Keys: []EncryptedKey{
			{KID: kid, IV: [16]byte{3}, Payload: bytes.Repeat([]byte{4}, 32), DurationSeconds: 60},
			{KID: [16]byte{0xC3}, IV: [16]byte{5}, Payload: bytes.Repeat([]byte{6}, 32)},
		}},
		FuncSelectKey: {Session: 3, KID: kid},
		FuncDecryptCENC: {
			Session: 3, Scheme: "cenc", IV8: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
			Subsamples: []mp4.SubsampleEntry{{ClearBytes: 16, ProtectedBytes: 496}, {ClearBytes: 0xFFFF}},
			Data:       bytes.Repeat([]byte{0x3C}, 512),
		},
		FuncGenericEncrypt: {Session: 2, IV: bytes.Repeat([]byte{8}, 16), Data: []byte("plain")},
		FuncGenericDecrypt: {Session: 2, IV: bytes.Repeat([]byte{8}, 16), Data: bytes.Repeat([]byte{0x55}, 64)},
		FuncGenericSign:    {Session: 2, Data: []byte("sign me")},
		FuncGenericVerify:  {Session: 2, Data: []byte("sign me"), MAC: bytes.Repeat([]byte{1}, 32)},
	}
}

func seedResponses() []teeResponse {
	return []teeResponse{
		{},
		{Session: 7},
		{StableID: "TESTDEV-L1", SystemID: 7711},
		{Out: bytes.Repeat([]byte{0xEE}, 256)},
		{Bool: true},
		{Err: ErrKeyNotLoaded.Error()},
	}
}

// TestTEEFrame_RoundTrip: every seed request and response survives the
// frame unchanged, and a re-encode reproduces the frame byte for byte.
func TestTEEFrame_RoundTrip(t *testing.T) {
	for fn, req := range seedRequests() {
		frame := req.marshal()
		var got teeRequest
		if err := got.unmarshal(frame); err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: decoded %+v, want %+v", fn, got, req)
		}
		if !bytes.Equal(got.marshal(), frame) {
			t.Errorf("%s: re-encoded frame differs", fn)
		}
	}
	for _, resp := range seedResponses() {
		var got teeResponse
		if err := got.unmarshal(resp.marshal()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("decoded %+v, want %+v", got, resp)
		}
	}
}

// TestTEEFrame_EmptyFieldsDecodeNil: zero-length byte fields come back nil,
// not empty, so resp.Out and DecryptResult.Data keep their nil-ness.
func TestTEEFrame_EmptyFieldsDecodeNil(t *testing.T) {
	req := teeRequest{Context: []byte{}, Subsamples: []mp4.SubsampleEntry{}, Keys: []EncryptedKey{{Payload: []byte{}}}}
	var got teeRequest
	if err := got.unmarshal(req.marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Context != nil || got.Subsamples != nil || got.Keys[0].Payload != nil {
		t.Errorf("empty fields decoded non-nil: %+v", got)
	}
	var resp teeResponse
	if err := resp.unmarshal((&teeResponse{Out: []byte{}}).marshal()); err != nil {
		t.Fatal(err)
	}
	if resp.Out != nil {
		t.Error("empty Out decoded non-nil")
	}
}

// TestTEEFrame_StrictDecoding: malformed frames fail with an error.
func TestTEEFrame_StrictDecoding(t *testing.T) {
	loadKeys := seedRequests()[FuncLoadKeys]
	req := loadKeys.marshal()
	resp := (&teeResponse{Out: []byte("out"), Err: "e"}).marshal()
	badBool := bytes.Clone(resp)
	badBool[4+4+3+4+4] = 2
	hugeCount := (&teeRequest{}).marshal()
	copy(hugeCount[len(hugeCount)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	hugeField := (&teeResponse{}).marshal()
	copy(hugeField[4:8], []byte{0x7F, 0xFF, 0xFF, 0xFF})

	cases := []struct {
		name  string
		frame []byte
		resp  bool
		want  error
	}{
		{"request truncated", req[:len(req)-1], false, errFrameTruncated},
		{"request trailing", append(bytes.Clone(req), 0), false, errFrameTrailing},
		{"request count beyond frame", hugeCount, false, errFrameTruncated},
		{"response truncated", resp[:9], true, errFrameTruncated},
		{"response trailing", append(bytes.Clone(resp), 0, 0), true, errFrameTrailing},
		{"response bool not 0/1", badBool, true, errFrameBool},
		{"response length beyond frame", hugeField, true, errFrameTruncated},
	}
	for _, tc := range cases {
		var err error
		if tc.resp {
			var p teeResponse
			err = p.unmarshal(tc.frame)
		} else {
			var q teeRequest
			err = q.unmarshal(tc.frame)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// sentinelTrustlet stands in for the Widevine trustlet: it answers every
// command after Initialize with the configured error, wrapped the way the
// core wraps its errors.
type sentinelTrustlet struct{ err error }

func (s *sentinelTrustlet) Name() string { return TrustletName }

func (s *sentinelTrustlet) Invoke(_ *tee.Context, cmd uint32, _ []byte) ([]byte, error) {
	var resp teeResponse
	if Func(cmd) != FuncInitialize {
		resp.Err = errString(fmt.Errorf("trustlet: %w", s.err))
	}
	return resp.marshal(), nil
}

// TestTEESentinels_CrossBoundary drives each sentinel out of a trustlet,
// across tee.World.Invoke and the response frame, into the adapter, and
// checks callers can still match it with errors.Is.
func TestTEESentinels_CrossBoundary(t *testing.T) {
	sentinels := []error{
		ErrNoSession, ErrNoKeybox, ErrNotProvisioned, ErrSignatureInvalid,
		ErrKeysNotDerived, ErrKeyNotLoaded, ErrNoKeySelected,
		ErrKeyExpired, ErrTooManySessions,
	}
	if len(sentinels) != len(teeSentinels) {
		t.Fatalf("teeSentinels has %d entries, test covers %d", len(teeSentinels), len(sentinels))
	}
	for _, sentinel := range sentinels {
		t.Run(sentinel.Error(), func(t *testing.T) {
			world := tee.NewWorld("sentinel")
			if err := world.Load(&sentinelTrustlet{err: sentinel}); err != nil {
				t.Fatal(err)
			}
			engine, err := NewTEEEngine("15.0", world)
			if err != nil {
				t.Fatal(err)
			}
			if err := engine.CloseSession(1); !errors.Is(err, sentinel) {
				t.Errorf("CloseSession: got %v, want errors.Is %v", err, sentinel)
			}
			if _, err := engine.DecryptCENC(1, "cenc", [8]byte{}, nil, []byte{1}); !errors.Is(err, sentinel) {
				t.Errorf("DecryptCENC: got %v, want errors.Is %v", err, sentinel)
			}
		})
	}

	// A non-sentinel error keeps its message but no identity.
	world := tee.NewWorld("plain")
	if err := world.Load(&sentinelTrustlet{err: errors.New("boom")}); err != nil {
		t.Fatal(err)
	}
	engine, err := NewTEEEngine("15.0", world)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.CloseSession(1); err == nil || err.Error() != "trustlet: boom" {
		t.Errorf("plain error crossed as %v", err)
	}
}

// decodeAllocs runs decode and reports the heap bytes it allocated. The
// decoders are deterministic, so a reading above limit is retaken a few
// times and the smallest kept: the fuzzing engine's own goroutines can
// allocate inside one measurement window, but not inside every one.
func decodeAllocs(limit uint64, decode func() error) (uint64, error) {
	least := uint64(math.MaxUint64)
	var err error
	for try := 0; try < 5 && least > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decode()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, err
}

// FuzzTEEFrame feeds arbitrary bytes to both frame decoders. Decoding must
// never panic; an accepted frame must re-encode to the same bytes and
// decode again to the same value; and a decode never allocates more than
// twice the input length. The factor two is the widest element's memory
// to wire ratio: an EncryptedKey is 64 bytes in memory and 40 on the wire
// at its smallest, and each count is checked against the bytes left at
// the element's wire size before its slice is made.
func FuzzTEEFrame(f *testing.F) {
	for _, req := range seedRequests() {
		f.Add(req.marshal())
	}
	for _, resp := range seedResponses() {
		f.Add(resp.marshal())
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		limit := 2 * uint64(len(frame))

		var req teeRequest
		n, reqErr := decodeAllocs(limit, func() error { return req.unmarshal(frame) })
		if n > limit {
			t.Fatalf("request decode of %d bytes allocated %d", len(frame), n)
		}
		if reqErr == nil {
			again := req.marshal()
			if !bytes.Equal(again, frame) {
				t.Fatalf("request re-encoded to %x, want %x", again, frame)
			}
			var req2 teeRequest
			if err := req2.unmarshal(again); err != nil || !reflect.DeepEqual(req2, req) {
				t.Fatalf("request decode→encode→decode moved: %+v, %v", req2, err)
			}
		}

		var resp teeResponse
		n, respErr := decodeAllocs(limit, func() error { return resp.unmarshal(frame) })
		if n > limit {
			t.Fatalf("response decode of %d bytes allocated %d", len(frame), n)
		}
		if respErr == nil {
			again := resp.marshal()
			if !bytes.Equal(again, frame) {
				t.Fatalf("response re-encoded to %x, want %x", again, frame)
			}
			var resp2 teeResponse
			if err := resp2.unmarshal(again); err != nil || !reflect.DeepEqual(resp2, resp) {
				t.Fatalf("response decode→encode→decode moved: %+v, %v", resp2, err)
			}
		}
	})
}
