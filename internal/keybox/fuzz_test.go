package keybox

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/wvcrypto"
)

// FuzzParse feeds arbitrary bytes to Parse, which the memory-scan attack
// runs over candidate windows of process memory. No input may panic; an
// input is accepted exactly when it is 128 bytes with the magic at its
// offset and a valid CRC, and an accepted keybox marshals back to the
// input bytes.
func FuzzParse(f *testing.F) {
	kb, err := New("NEXUS5-SN-0042", 4442, wvcrypto.NewDeterministicReader("keybox-fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	wire := kb.Marshal()
	f.Add(wire)
	f.Add(wire[:Size-1])
	f.Add(append(bytes.Clone(wire), 0))
	badCRC := bytes.Clone(wire)
	badCRC[0] ^= 1
	f.Add(badCRC)
	f.Add(make([]byte, Size))
	f.Fuzz(func(t *testing.T, b []byte) {
		parsed, err := Parse(b)
		valid := len(b) == Size &&
			bytes.Equal(b[magicOff:crcOff], Magic[:]) &&
			binary.BigEndian.Uint32(b[crcOff:]) == crc32.ChecksumIEEE(b[:crcOff])
		if (err == nil) != valid {
			t.Fatalf("Parse(%x) error = %v, want accepted = %v", b, err, valid)
		}
		if err != nil {
			return
		}
		if got := parsed.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("Marshal(Parse(b)) = %x, want %x", got, b)
		}
	})
}
