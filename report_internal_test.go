package streamfetch

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
)

// TestReportCarriesEveryCounter: every counter leaf of sim.Counters
// reaches the report. Each uint64 leaf is filled by reflection with a
// distinct value, and each value must appear among the numbers of
// newReport's JSON, so a counter added to the block but not to Report
// fails here.
func TestReportCarriesEveryCounter(t *testing.T) {
	var c sim.Counters
	want := map[string]string{} // value → counter path
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint64:
			n := uint64(1_000_003 + 1_000*len(want))
			v.SetUint(n)
			want[strconv.FormatUint(n, 10)] = path
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := range v.Len() {
				fill(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		default:
			t.Fatalf("counter leaf %s is a %s, not a uint64", path, v.Type())
		}
	}
	fill(reflect.ValueOf(&c).Elem(), "Counters")

	rep := newReport("164.gzip", &layout.Layout{Name: "base"}, 0, 0,
		sim.Result{Engine: "streams", Width: 8, Counters: c})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var collect func(v any)
	collect = func(v any) {
		switch v := v.(type) {
		case json.Number:
			seen[v.String()] = true
		case map[string]any:
			for _, e := range v {
				collect(e)
			}
		case []any:
			for _, e := range v {
				collect(e)
			}
		}
	}
	collect(doc)
	for value, path := range want {
		if !seen[value] {
			t.Errorf("%s (filled with %s) does not reach the report JSON", path, value)
		}
	}
}
