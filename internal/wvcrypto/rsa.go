package wvcrypto

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// RSABits is the modulus size of the Device RSA Key, matching the 2048-bit
// key the paper reverse-engineered.
const RSABits = 2048

// rsaPublicExponent is F4, the exponent every Widevine device key uses.
const rsaPublicExponent = 65537

// GenerateRSAKey generates a Device RSA key pair from the given randomness
// source, as a pure function of the bytes it reads.
//
// The standard library's rsa.GenerateKey is explicitly NOT that function:
// with a non-default reader it routes candidate reads through
// drbg.ReadWithReader, which prepends randutil.MaybeReadByte — a coin
// flip that desynchronizes the stream on roughly half of all calls. The
// keypool and world-snapshot tiers need a key minted at boot, restored
// from a snapshot, or minted lazily to be byte-identical, so prime
// generation here reads the stream directly (FIPS 186-5 style: draw a
// candidate, pin the top two bits and the low bit, reject until prime).
// big.Int.ProbablyPrime is deterministic for a given candidate, so the
// whole key is determined by the reader's bytes.
func GenerateRSAKey(rand io.Reader) (*rsa.PrivateKey, error) {
	e := big.NewInt(rsaPublicExponent)
	one := big.NewInt(1)
	for {
		p, err := randomPrime(rand, (RSABits+1)/2)
		if err != nil {
			return nil, fmt.Errorf("wvcrypto: generate rsa key: %w", err)
		}
		q, err := randomPrime(rand, RSABits/2)
		if err != nil {
			return nil, fmt.Errorf("wvcrypto: generate rsa key: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != RSABits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			// e divides p-1 or q-1; redraw.
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: rsaPublicExponent},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		return key, nil
	}
}

// randomPrime draws candidates of exactly the given bit length from rand
// until one is (probably) prime. The top two bits are set so the product
// of two primes always reaches the full modulus size; the low bit makes
// the candidate odd.
func randomPrime(rand io.Reader, bits int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			return nil, err
		}
		excess := len(b)*8 - bits
		if excess != 0 {
			b[0] >>= excess
		}
		// Set the top two bits so the product of two primes always
		// reaches the full modulus size.
		if excess < 7 {
			b[0] |= 0b1100_0000 >> excess
		} else {
			b[0] |= 1
			b[1] |= 0b1000_0000
		}
		b[len(b)-1] |= 1
		p.SetBytes(b)
		// Every candidate is above sieveBound, so a small factor proves it
		// composite and ProbablyPrime rejects it too (no composite is known
		// to pass it). The sieve changes neither the bytes drawn nor the
		// prime returned, only how fast a composite is turned away.
		if !hasSmallFactor(p) && p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// sieveBound bounds randomPrime's trial division: every odd prime below
// it is tried before Miller-Rabin. Most candidates have such a factor,
// and finding it costs a fraction of one Miller-Rabin round.
const sieveBound = 1 << 14

// primeWord is a run of consecutive odd primes together with their
// product, which fits in a uint64.
type primeWord struct {
	product uint64
	primes  []uint64
}

// sieveWords packs the odd primes below sieveBound into as few products
// as fit a uint64 (417 words), smallest primes first.
var sieveWords = packPrimeWords(sieveBound)

func packPrimeWords(bound int) []primeWord {
	composite := make([]bool, bound)
	var words []primeWord
	cur := primeWord{product: 1}
	for p := 3; p < bound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < bound; m += 2 * p {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(cur.product, uint64(p)); hi != 0 {
			words = append(words, cur)
			cur = primeWord{product: 1}
		}
		cur.product *= uint64(p)
		cur.primes = append(cur.primes, uint64(p))
	}
	return append(words, cur)
}

// hasSmallFactor reports whether an odd prime below sieveBound divides
// n. For n above every such prime a true verdict proves n composite.
// Each word's product is reduced against n's limbs, and the remainder is
// then tested against the primes in that word.
func hasSmallFactor(n *big.Int) bool {
	limbs := n.Bits()
	for _, w := range sieveWords {
		var r uint64
		for i := len(limbs) - 1; i >= 0; i-- {
			if bits.UintSize == 64 {
				_, r = bits.Div64(r, uint64(limbs[i]), w.product)
			} else {
				_, r = bits.Div64(r>>32, r<<32|uint64(limbs[i]), w.product)
			}
		}
		for _, p := range w.primes {
			if r%p == 0 {
				return true
			}
		}
	}
	return false
}

// SignPSS signs the SHA-256 digest of msg with RSASSA-PSS, the signature
// scheme OEMCrypto uses for license requests once a Device RSA key is
// provisioned.
func SignPSS(rand io.Reader, key *rsa.PrivateKey, msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPSS(rand, key, crypto.SHA256, digest[:], &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	})
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: pss sign: %w", err)
	}
	return sig, nil
}

// VerifyPSS reports whether sig is a valid RSASSA-PSS signature of msg.
func VerifyPSS(pub *rsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	err := rsa.VerifyPSS(pub, crypto.SHA256, digest[:], sig, &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	})
	return err == nil
}

// EncryptOAEP encrypts a session key to the device's RSA public key with
// RSAES-OAEP (SHA-1, as in OEMCrypto's RewrapDeviceRSAKey / session-key
// transport).
func EncryptOAEP(rand io.Reader, pub *rsa.PublicKey, plaintext []byte) ([]byte, error) {
	out, err := rsa.EncryptOAEP(sha1.New(), rand, pub, plaintext, nil)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: oaep encrypt: %w", err)
	}
	return out, nil
}

// DecryptOAEP recovers an OAEP-encrypted session key with the Device RSA
// private key.
func DecryptOAEP(key *rsa.PrivateKey, ciphertext []byte) ([]byte, error) {
	out, err := rsa.DecryptOAEP(sha1.New(), nil, key, ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: oaep decrypt: %w", err)
	}
	return out, nil
}

// MarshalRSAPrivateKey serializes a Device RSA key in PKCS#1 DER form, the
// shape in which it crosses the provisioning channel and sits in L3 process
// memory (the insecure-storage finding, CWE-922).
func MarshalRSAPrivateKey(key *rsa.PrivateKey) []byte {
	return x509.MarshalPKCS1PrivateKey(key)
}

// ParseRSAPrivateKey parses a PKCS#1 DER Device RSA key.
func ParseRSAPrivateKey(der []byte) (*rsa.PrivateKey, error) {
	key, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: parse rsa key: %w", err)
	}
	return key, nil
}

// MarshalRSAPublicKey serializes an RSA public key in PKCS#1 DER form.
func MarshalRSAPublicKey(pub *rsa.PublicKey) []byte {
	return x509.MarshalPKCS1PublicKey(pub)
}

// ParseRSAPublicKey parses a PKCS#1 DER RSA public key.
func ParseRSAPublicKey(der []byte) (*rsa.PublicKey, error) {
	pub, err := x509.ParsePKCS1PublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: parse rsa public key: %w", err)
	}
	return pub, nil
}
