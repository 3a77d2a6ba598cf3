package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestResultJSONFieldsMatchTags: with every field of Result set by
// reflection, and with every field zero, AppendResultJSON must write
// what json.MarshalIndent writes from Result's JSON tags, so the
// encoder's field list is Result's and a field added to Result cannot
// be dropped from the artifact silently.
func TestResultJSONFieldsMatchTags(t *testing.T) {
	var filled Result
	fill(t, reflect.ValueOf(&filled).Elem())
	for _, r := range []*Result{&filled, {}} {
		want, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendResultJSON(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("encoder and Result's JSON tags disagree:\nencoding/json:\n%s\nencoder:\n%s", want, got)
		}
	}
}

// fill sets v, and everything it holds, to a non-zero value.
func fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(t, s.Index(0))
		v.Set(s)
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, k)
		fill(t, e)
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	default:
		t.Fatalf("fill: no value for a %s", v.Type())
	}
}
