package cdm_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cdm"
)

// The license and provisioning servers parse request bodies straight off
// the network. For any body that parses, the canonical bytes must parse
// back to an equal request and re-canonicalize to themselves: the server
// derives session keys from those bytes, so two spellings of one request
// must never canonicalize apart.

func FuzzParseLicenseRequest(f *testing.F) {
	seed := &cdm.LicenseRequest{
		StableID: "TESTDEV-L1", SystemID: 7711, CDMVersion: "15.0", Level: "L1",
		ContentID: "movie-1", KIDs: [][16]byte{{1, 2, 3}, {4}}, Nonce: bytes.Repeat([]byte{9}, 16),
	}
	canonical, err := seed.Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"kids":[],"nonce":""}`))
	f.Add([]byte(`{"kids":[[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]],"STABLEID":"x"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := cdm.ParseLicenseRequest(body)
		if err != nil {
			return
		}
		canonical, err := req.Canonical()
		if err != nil {
			t.Fatalf("parsed request does not canonicalize: %v", err)
		}
		again, err := cdm.ParseLicenseRequest(canonical)
		if err != nil {
			t.Fatalf("canonical bytes %q do not parse: %v", canonical, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip moved %+v to %+v", req, again)
		}
		if twice, _ := again.Canonical(); !bytes.Equal(twice, canonical) {
			t.Fatalf("canonical form is not a fixed point: %q then %q", canonical, twice)
		}
	})
}

func FuzzParseProvisioningRequest(f *testing.F) {
	seed := &cdm.ProvisioningRequest{
		StableID: "TESTDEV-L3", SystemID: 4464, CDMVersion: "14.0", Level: "L3",
		Nonce: bytes.Repeat([]byte{7}, 16),
	}
	canonical, err := seed.Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"nonce":"","systemId":0}`))
	f.Add([]byte(`{"stableId":"\ud800","nonce":null}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := cdm.ParseProvisioningRequest(body)
		if err != nil {
			return
		}
		canonical, err := req.Canonical()
		if err != nil {
			t.Fatalf("parsed request does not canonicalize: %v", err)
		}
		again, err := cdm.ParseProvisioningRequest(canonical)
		if err != nil {
			t.Fatalf("canonical bytes %q do not parse: %v", canonical, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip moved %+v to %+v", req, again)
		}
		if twice, _ := again.Canonical(); !bytes.Equal(twice, canonical) {
			t.Fatalf("canonical form is not a fixed point: %q then %q", canonical, twice)
		}
	})
}
