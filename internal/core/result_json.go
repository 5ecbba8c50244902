package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// NodeResult's JSON encoding is encoding/json's, plus an exact round trip
// for infinite float fields, which encoding/json rejects. A die too large
// for its wafer legitimately costs +Inf (power.DieCostUSD), and its design
// point must still be cacheable and journalable. Each infinite field is
// written as 0 and named, with its sign, in an "Infinite" object keyed by
// its Go field path ("Budget.ChipCostUSD": "+Inf"). A result with only
// finite fields encodes byte-identically to the plain struct, so cache and
// journal files written before this encoding still load.

// nodeResultJSON is NodeResult without its methods, plus the infinite
// fields.
type nodeResultJSON struct {
	plainNodeResult
	Infinite map[string]string `json:",omitempty"`
}

type plainNodeResult NodeResult

// MarshalJSON implements json.Marshaler.
func (r NodeResult) MarshalJSON() ([]byte, error) {
	w := nodeResultJSON{plainNodeResult: plainNodeResult(r)}
	w.Infinite = takeInfinite(reflect.ValueOf(&w.plainNodeResult).Elem(), "", nil)
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *NodeResult) UnmarshalJSON(data []byte) error {
	var w nodeResultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	v := reflect.ValueOf(&w.plainNodeResult).Elem()
	for path, sign := range w.Infinite {
		f := v
		for _, name := range strings.Split(path, ".") {
			if f.Kind() != reflect.Struct {
				f = reflect.Value{}
				break
			}
			f = f.FieldByName(name)
		}
		if !f.IsValid() || !f.CanSet() || f.Kind() != reflect.Float64 {
			return fmt.Errorf("core: node result: infinite field %q is not a float field", path)
		}
		switch sign {
		case "+Inf":
			f.SetFloat(math.Inf(1))
		case "-Inf":
			f.SetFloat(math.Inf(-1))
		default:
			return fmt.Errorf("core: node result: infinite field %q has value %q, want +Inf or -Inf", path, sign)
		}
	}
	*r = NodeResult(w.plainNodeResult)
	return nil
}

// takeInfinite zeroes every infinite float field of the struct v, walking
// nested structs, and records each in inf by dotted field path.
func takeInfinite(v reflect.Value, prefix string, inf map[string]string) map[string]string {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		path := prefix + v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Float64:
			if x := f.Float(); math.IsInf(x, 0) {
				if inf == nil {
					inf = make(map[string]string)
				}
				inf[path] = "+Inf"
				if x < 0 {
					inf[path] = "-Inf"
				}
				f.SetFloat(0)
			}
		case reflect.Struct:
			inf = takeInfinite(f, path+".", inf)
		}
	}
	return inf
}
