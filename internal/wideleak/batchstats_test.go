package wideleak

import (
	"reflect"
	"testing"
)

// fillStats sets every BatchStats field from its index: int fields to
// (i+1)*scale, map fields to {"shared": (i+1)*scale, only: 1}. Reflection
// walks the struct, so a field added later is filled too, and a field of
// a kind Add cannot sum fails the test.
func fillStats(t *testing.T, scale int, only string) BatchStats {
	t.Helper()
	var st BatchStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		n := (i + 1) * scale
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(n))
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]int{"shared": n, only: 1}))
		default:
			t.Fatalf("BatchStats.%s has kind %s; teach Add and this test to sum it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// TestBatchStats_AddSumsEveryField: Add sums every int field and every
// map key, so the fleet's merge of its parts' stats cannot silently
// drop a field added later.
func TestBatchStats_AddSumsEveryField(t *testing.T) {
	sum := fillStats(t, 1, "left")
	sum.Add(fillStats(t, 10, "right"))

	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := (i + 1) * 11
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			if got := int(f.Int()); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		case reflect.Map:
			got := f.Interface().(map[string]int)
			wantMap := map[string]int{"shared": want, "left": 1, "right": 1}
			if !reflect.DeepEqual(got, wantMap) {
				t.Errorf("%s = %v, want %v", name, got, wantMap)
			}
		}
	}

	// Adding into the zero value allocates the maps it needs and leaves
	// the addend untouched.
	var zero BatchStats
	addend := fillStats(t, 1, "left")
	zero.Add(addend)
	if !reflect.DeepEqual(zero, fillStats(t, 1, "left")) {
		t.Errorf("zero.Add(x) = %+v, want %+v", zero, addend)
	}
	if !reflect.DeepEqual(addend, fillStats(t, 1, "left")) {
		t.Errorf("Add mutated its argument: %+v", addend)
	}
}
