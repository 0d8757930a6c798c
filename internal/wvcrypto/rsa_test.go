package wvcrypto

import (
	"bytes"
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"
)

var (
	testKeyOnce sync.Once
	testKey     *rsa.PrivateKey
	testKeyErr  error
)

// sharedTestKey generates one deterministic 2048-bit RSA key for the whole
// package's tests; generation is the slow part so it is done once.
func sharedTestKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		testKey, testKeyErr = GenerateRSAKey(NewDeterministicReader("wvcrypto-test-rsa"))
	})
	if testKeyErr != nil {
		t.Fatalf("generate shared test key: %v", testKeyErr)
	}
	return testKey
}

func TestRSASignAndVerify(t *testing.T) {
	key := sharedTestKey(t)
	msg := []byte("license request bytes")
	rand := NewDeterministicReader("pss-sign")
	sig, err := SignPSS(rand, key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("VerifyPSS rejected a valid signature")
	}
	if VerifyPSS(&key.PublicKey, []byte("other message"), sig) {
		t.Error("VerifyPSS accepted a signature over another message")
	}
	sig[0] ^= 1
	if VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("VerifyPSS accepted a corrupted signature")
	}
}

func TestRSAOAEPRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	sessionKey := bytes.Repeat([]byte{0x77}, 16)
	rand := NewDeterministicReader("oaep")
	ct, err := EncryptOAEP(rand, &key.PublicKey, sessionKey)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := DecryptOAEP(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, sessionKey) {
		t.Error("OAEP roundtrip mismatch")
	}

	ct[0] ^= 1
	if _, err := DecryptOAEP(key, ct); err == nil {
		t.Error("DecryptOAEP accepted a corrupted ciphertext")
	}
}

func TestRSAKeyMarshalRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	der := MarshalRSAPrivateKey(key)
	parsed, err := ParseRSAPrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.D.Cmp(key.D) != 0 || parsed.N.Cmp(key.N) != 0 {
		t.Error("private key roundtrip mismatch")
	}

	pubDER := MarshalRSAPublicKey(&key.PublicKey)
	pub, err := ParseRSAPublicKey(pubDER)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(key.N) != 0 || pub.E != key.E {
		t.Error("public key roundtrip mismatch")
	}
}

func TestParseRSAPrivateKey_Garbage(t *testing.T) {
	if _, err := ParseRSAPrivateKey([]byte("not a der key")); err == nil {
		t.Error("want error for garbage DER")
	}
	if _, err := ParseRSAPublicKey([]byte{0x30, 0x00}); err == nil {
		t.Error("want error for garbage public DER")
	}
}

// GenerateRSAKey must be a pure function of the reader's bytes: equal
// forks yield byte-identical keys, every time. The stdlib's GenerateKey
// does NOT have this property (randutil.MaybeReadByte desynchronizes
// injected readers on ~half of all calls), which is why wvcrypto owns
// prime generation — this test is the regression guard for the keypool
// and world-snapshot tiers, whose correctness rests on this invariant.
func TestGenerateRSAKey_Deterministic(t *testing.T) {
	const rounds = 4 // a coin-flip regression passes single runs ~50% of the time
	want := MarshalRSAPrivateKey(sharedTestKey(t))
	for i := 0; i < rounds; i++ {
		key, err := GenerateRSAKey(NewDeterministicReader("wvcrypto-test-rsa"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(MarshalRSAPrivateKey(key), want) {
			t.Fatalf("round %d: key differs from shared mint over an equal stream", i)
		}
	}
	if err := sharedTestKey(t).Validate(); err != nil {
		t.Fatalf("generated key fails validation: %v", err)
	}
	if got := sharedTestKey(t).N.BitLen(); got != RSABits {
		t.Fatalf("modulus is %d bits, want %d", got, RSABits)
	}
}

func TestDeterministicReader_Reproducible(t *testing.T) {
	a := NewDeterministicReader("seed")
	b := NewDeterministicReader("seed")
	bufA := make([]byte, 100)
	bufB := make([]byte, 100)
	if _, err := a.Read(bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Error("same seed produced different streams")
	}

	c := NewDeterministicReader("other seed")
	bufC := make([]byte, 100)
	if _, err := c.Read(bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA, bufC) {
		t.Error("different seeds produced identical streams")
	}
}

func TestDeterministicReader_SplitReadsMatch(t *testing.T) {
	whole := NewDeterministicReader("split")
	parts := NewDeterministicReader("split")

	bufWhole := make([]byte, 71)
	if _, err := whole.Read(bufWhole); err != nil {
		t.Fatal(err)
	}
	bufParts := make([]byte, 71)
	for off := 0; off < len(bufParts); {
		n := 7
		if off+n > len(bufParts) {
			n = len(bufParts) - off
		}
		if _, err := parts.Read(bufParts[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if !bytes.Equal(bufWhole, bufParts) {
		t.Error("split reads diverge from whole read")
	}
}

// rsaBenchSink keeps the benchmark's last key alive.
var rsaBenchSink *rsa.PrivateKey

// BenchmarkGenerateRSAKey mints one key from each of 8 fixed reader
// seeds per op. How many candidates a prime search rejects varies widely
// from seed to seed, so a single seed says little; the fixed set makes
// every op the same work. Reports ms per key.
func BenchmarkGenerateRSAKey(b *testing.B) {
	const seeds = 8
	for i := 0; i < b.N; i++ {
		for s := 0; s < seeds; s++ {
			key, err := GenerateRSAKey(NewDeterministicReader(fmt.Sprintf("wvcrypto-bench-rsa-%d", s)))
			if err != nil {
				b.Fatal(err)
			}
			rsaBenchSink = key
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N*seeds), "ms/key")
}
